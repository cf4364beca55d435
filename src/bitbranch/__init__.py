"""Multi-branch binary decomposition of quantized networks.

Quantize onto the odd {-1,+1}-expandable grid, split codes into packed bit
planes, multiply with xnor/popcount, and train either the quantized model
or its multi-branch binary form directly.
"""

from .bitops import pack, unpack, xnor_popcount_words
from .core import (ConfigError, DecompositionError, DivergenceError, DomainError,
                   EncodingError, FormatError, ShapeError, StageError, make_rng, matmul_f)
from .gemm import (EncodedMatrix, decode_codes, encode_codes, encode_matrix, encoded_gemm,
                   scale_output, zero_one_product)
from .nn import (LayerSpec, ModelState, accuracy, batchnorm_forward, conv2d_forward,
                 decompose_model, dense_forward, load_model, model_forward,
                 quantize_model, save_model)
from .quant import (QuantizedTensor, activation, binarize, dequantize, encoder_derivative,
                    mbit_encoder_digits, odd_code_digits, quantize_linear, quantize_odd)
from .train import (GradState, TrainConfig, optimizer_update, progressive_init,
                    train_model, train_step_alg1, train_step_alg2)

__version__ = "0.1.0"
