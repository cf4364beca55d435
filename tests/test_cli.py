"""CLI verbs, exit codes, and file determinism."""

import numpy as np
import pytest

from bitbranch import cli, core, datasets, nn, train
from bitbranch.cli import main


def make_float_model(path, dims=(2, 16, 16, 2), bits=2, seed=42):
    model = nn.init_mlp(list(dims), core.make_rng(seed), m_bits=bits, k_bits=bits)
    nn.save_model(model, str(path))
    return model


class TestQuantizeCmd:
    def test_prints_ratio_16x(self, tmp_path, capsys):
        src = tmp_path / "f.bbm"
        make_float_model(src)
        rc = main(["quantize", "--model", str(src), "--out", str(tmp_path / "q.bbm"),
                   "--M", "2", "--K", "2"])
        assert rc == 0
        assert "16x" in capsys.readouterr().out

    def test_prints_ratio_4x_for_k8(self, tmp_path, capsys):
        src = tmp_path / "f.bbm"
        make_float_model(src, bits=8)
        rc = main(["quantize", "--model", str(src), "--out", str(tmp_path / "q.bbm"),
                   "--M", "8", "--K", "8"])
        assert rc == 0
        assert "4x" in capsys.readouterr().out

    def test_missing_input_exit_2(self, tmp_path):
        rc = main(["quantize", "--model", str(tmp_path / "absent.bbm"),
                   "--out", str(tmp_path / "q.bbm"), "--M", "2", "--K", "2"])
        assert rc == 2

    def test_input_not_mutated(self, tmp_path):
        src = tmp_path / "f.bbm"
        make_float_model(src)
        before = src.read_bytes()
        main(["quantize", "--model", str(src), "--out", str(tmp_path / "q.bbm"),
              "--M", "2", "--K", "2"])
        assert src.read_bytes() == before


class TestDecomposeEval:
    def test_pipeline_and_equivalence(self, tmp_path, capsys):
        src = tmp_path / "f.bbm"
        make_float_model(src)
        q = tmp_path / "q.bbm"
        d = tmp_path / "d.bbm"
        assert main(["quantize", "--model", str(src), "--out", str(q),
                     "--M", "2", "--K", "2"]) == 0
        assert main(["decompose", "--model", str(q), "--out", str(d)]) == 0
        rc = main(["eval", "--model", str(q), "--model2", str(d),
                   "--dataset", "moons", "--n", "200", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "equivalent: true" in out

    def test_eval_runs_each_model_once(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "f.bbm"
        float_model = make_float_model(src)
        x, y = datasets.make_moons(200, noise=0.1, seed=0)
        expect = f"accuracy[float]: {nn.accuracy(float_model, x, y):.4f}\n"
        real_forward = nn.model_forward
        stages = []

        def counting_forward(m, *args, **kwargs):
            stages.append(m.stage)
            return real_forward(m, *args, **kwargs)

        monkeypatch.setattr(nn, "model_forward", counting_forward)
        assert main(["eval", "--model", str(src), "--model2", str(src), "--n", "200"]) == 0
        assert stages == ["float", "float"]
        assert capsys.readouterr().out == (expect * 2 + "max logit diff: 0.000e+00\n"
                                           "equivalent: true\n")

    def test_mbbn_checkpoint_pipeline(self, tmp_path, capsys):
        ckpt, q, d = tmp_path / "m.bbm", tmp_path / "q.bbm", tmp_path / "d.bbm"
        assert main(["train", "--alg", "mbbn", "--epochs", "5", "--n", "128",
                     "--seed", "3", "--out", str(ckpt)]) == 0
        assert main(["quantize", "--model", str(ckpt), "--out", str(q),
                     "--M", "2", "--K", "2"]) == 0
        assert main(["decompose", "--model", str(q), "--out", str(d)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(ckpt), "--model2", str(d),
                   "--n", "200", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max logit diff: 0.000e+00" in out and "equivalent: true" in out

    @pytest.mark.parametrize("flags,error", [(["--K", "3"], "do not give K=3 codes"),
                                             (["--K", "2", "--grid", "linear"], "odd-grid")],
                             ids=["K3", "linear"])
    def test_mbbn_quantize_refuses_other_codes(self, tmp_path, capsys, flags, error):
        ckpt, out = tmp_path / "m.bbm", tmp_path / "q.bbm"
        assert main(["train", "--alg", "mbbn", "--epochs", "1", "--n", "64",
                     "--out", str(ckpt)]) == 0
        rc = main(["quantize", "--model", str(ckpt), "--out", str(out), "--M", "2"] + flags)
        assert rc == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_equivalence_false_nonzero_exit(self, tmp_path, capsys):
        a = tmp_path / "a.bbm"
        b = tmp_path / "b.bbm"
        make_float_model(a, seed=1)
        make_float_model(b, seed=2)
        rc = main(["eval", "--model", str(a), "--model2", str(b),
                   "--dataset", "moons", "--n", "100"])
        assert rc == 1
        assert "equivalent: false" in capsys.readouterr().out


class TestTrainCmd:
    def test_zero_epochs_writes_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "ckpt.bbm"
        rc = main(["train", "--dataset", "moons", "--arch", "mlp:2-8-2",
                   "--epochs", "0", "--out", str(out), "--seed", "0"])
        assert rc == 0
        assert out.exists() and (tmp_path / "ckpt.bbm.opt").exists()
        model = nn.load_model(str(out))
        assert model.stage == "float"
        # untouched random init classifies near chance
        acc = float(capsys.readouterr().out.split("val_acc=")[1])
        assert 0.2 <= acc <= 0.8

    def test_golden_run_value(self, tmp_path):
        # frozen reference accuracy for the documented train invocation;
        # any drift in RNG, batching, or update order shows up here
        out, log = tmp_path / "g.bbm", tmp_path / "g.csv"
        rc = main(["train", "--dataset", "moons", "--arch", "mlp:2-16-16-2",
                   "--M", "2", "--K", "2", "--seed", "0", "--epochs", "10",
                   "--n", "256", "--out", str(out), "--log", str(log)])
        assert rc == 0
        last = log.read_text().strip().splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(0.8385416666666666, abs=1e-12)
        assert float(last[3]) == pytest.approx(0.828125, abs=1e-12)

    def test_deterministic_outputs(self, tmp_path):
        args = ["train", "--dataset", "moons", "--arch", "mlp:2-8-2",
                "--epochs", "3", "--seed", "7", "--n", "128"]
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.bbm"
            log = tmp_path / f"{tag}.csv"
            assert main(args + ["--out", str(out), "--log", str(log)]) == 0
            files.append((out.read_bytes(), log.read_bytes()))
        assert files[0] == files[1]

    def test_alg_dispatch(self, tmp_path):
        for alg in ("qnn", "mbbn"):
            out = tmp_path / f"{alg}.bbm"
            rc = main(["train", "--dataset", "moons", "--arch", "mlp:2-8-2",
                       "--alg", alg, "--epochs", "1", "--out", str(out), "--n", "64"])
            assert rc == 0
            assert nn.load_model(str(out)).flavor == ("mbbn" if alg == "mbbn" else "qnn")

    def test_bad_arch_exit_1(self, tmp_path):
        rc = main(["train", "--dataset", "moons", "--arch", "cnn:3",
                   "--epochs", "1", "--out", str(tmp_path / "x.bbm")])
        assert rc == 1

    def test_progressive_training(self, tmp_path, capsys):
        out = tmp_path / "prog.bbm"
        log = tmp_path / "prog.csv"
        rc = main(["train", "--dataset", "moons", "--arch", "mlp:2-8-2",
                   "--M", "2", "--K", "2", "--progressive-from", "4",
                   "--epochs", "2", "--n", "128", "--seed", "0",
                   "--out", str(out), "--log", str(log)])
        assert rc == 0
        model = nn.load_model(str(out))
        assert model.specs[0].k_bits == 2  # stepped 4 -> 3 -> 2
        # one log block per stage
        assert len(log.read_text().strip().splitlines()) == 1 + 3 * 2

    def test_progressive_divergence_saves_the_diverged_phase(self, tmp_path, capsys,
                                                             monkeypatch):
        # the fourth step of the 3-bit phase (4 -> 3 -> 2) diverges
        real_step = train.train_step_alg2

        def step(model, batch, cfg, gs):
            if model.specs[0].k_bits == 3 and gs.step == 3:
                raise core.DivergenceError("non-finite loss nan")
            return real_step(model, batch, cfg, gs)

        monkeypatch.setattr(train, "train_step_alg2", step)
        out = tmp_path / "prog.bbm"
        rc = main(["train", "--dataset", "moons", "--arch", "mlp:2-8-2",
                   "--M", "2", "--K", "2", "--progressive-from", "4",
                   "--epochs", "2", "--n", "128", "--seed", "0", "--out", str(out)])
        assert rc == 1
        assert "training diverged" in capsys.readouterr().err
        model, gs = train.load_checkpoint(str(out))
        assert [s.k_bits for s in model.specs if s.kind == "dense"] == [3, 3]
        assert gs.step == 3

    def test_nan_batch_diverges_in_its_phase(self, tmp_path, capsys, monkeypatch):
        # an all-NaN batch at the fourth step of the 3-bit phase (4 -> 3 -> 2)
        real_step = train.train_step_alg2

        def step(model, batch, cfg, gs):
            x, y = batch
            if model.specs[0].k_bits == 3 and gs.step == 3:
                x = np.full_like(x, np.nan)
            return real_step(model, (x, y), cfg, gs)

        monkeypatch.setattr(train, "train_step_alg2", step)
        out = tmp_path / "nan.bbm"
        rc = main(["train", "--dataset", "moons", "--arch", "mlp:2-8-2",
                   "--M", "2", "--K", "2", "--progressive-from", "4",
                   "--epochs", "2", "--n", "128", "--seed", "0", "--out", str(out)])
        assert rc == 1
        assert "non-finite activations" in capsys.readouterr().err
        model, gs = train.load_checkpoint(str(out))
        assert [s.k_bits for s in model.specs if s.kind == "dense"] == [3, 3]
        assert gs.step == 3
        assert all(np.all(np.isfinite(p)) for p in gs.params.values())

    def test_mbbn_nan_pixel_diverges(self, tmp_path, capsys):
        path = tmp_path / "nan.grid"
        images = core.make_rng(0).uniform(-1, 1, (16, 1, 2, 2))
        images[5, 0, 1, 0] = np.nan
        datasets.save_grid(str(path), images, np.arange(16) % 2)
        out = tmp_path / "nan.bbm"
        rc = main(["train", "--alg", "mbbn", "--dataset", f"grid:{path}", "--arch", "mlp:4-2",
                   "--epochs", "1", "--out", str(out)])
        assert rc == 1
        assert "non-finite activations" in capsys.readouterr().err
        model, gs = train.load_checkpoint(str(out))
        assert model.flavor == "mbbn"
        assert all(np.all(np.isfinite(p)) for p in gs.params.values())

    def test_config_file_fills_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=2\nn=64\narch=mlp:2-4-2\n")
        out = tmp_path / "c.bbm"
        log = tmp_path / "c.csv"
        rc = main(["train", "--dataset", "moons", "--config", str(cfg),
                   "--out", str(out), "--log", str(log)])
        assert rc == 0
        assert len(log.read_text().strip().splitlines()) == 3  # header + 2 epochs


class TestConfigFile:
    @pytest.mark.parametrize("verb,line", [("eval", "n=x"), ("train", "alg=foo")])
    def test_bad_value_exits_2(self, tmp_path, capsys, verb, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        model = tmp_path / "f.bbm"
        make_float_model(model)
        argv = {"train": ["train", "--epochs", "1", "--n", "64", "--out", str(tmp_path / "t.bbm")],
                "eval": ["eval", "--model", str(model)]}[verb]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert f"argument --{line.split('=')[0]}" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("threads=2\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--epochs", "1", "--n", "64", "--out", str(tmp_path / "t.bbm"),
                  "--config", str(cfg)])
        assert exc.value.code == 2
        assert "key 'threads' does not match any flag" in capsys.readouterr().err

    def test_value_goes_through_flag_type(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("alg=mbbn\nepochs=1\nn=64\n")
        out = tmp_path / "c.bbm"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert nn.load_model(str(out)).flavor == "mbbn"

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("alg=foo\n")
        out = tmp_path / "c.bbm"
        assert main(["train", "--alg", "mbbn", "--epochs", "1", "--n", "64",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert nn.load_model(str(out)).flavor == "mbbn"


def bad_values():
    """(via, verb, flag, value): each value exits 2 on argv and, where the flag
    is optional, from --config."""
    optional = [("bench", "--sizes", v) for v in ("1x2", "0x8x1", "1x8x1,2x-1x2")]
    optional += [("bench", "--precisions", v) for v in ("1x1x1", "9x1", "2x0")]
    optional += [("bench", "--repeats", "0"), ("train", "--batch-size", "0"),
                 ("train", "--batch-size", "-4"), ("train", "--epochs", "-1")]
    optional += [("train", "--val-frac", v) for v in ("0", "1.5", "nan")]
    optional += [("train", flag, v) for flag in ("--M", "--K") for v in ("9", "-1")]
    optional += [("train", "--progressive-from", v) for v in ("9", "-1", "1")]
    optional += [(verb, "--n", "0") for verb in ("train", "eval")]
    optional += [(verb, "--noise", v) for verb in ("train", "eval") for v in ("-1", "nan", "inf")]
    optional += [("train", "--lr", v) for v in ("-1", "0", "nan", "inf")]
    optional += [("train", "--arch", v) for v in ("mlp:2-0-2", "mlp:2", "mlp:", "mlp:2-x-2")]
    required = [("quantize", flag, v) for flag in ("--M", "--K") for v in ("9", "0", "-1")]
    cases = [(via, *case) for via in ("argv", "config") for case in optional]
    cases += [("argv", *case) for case in required]
    params = []
    for via, verb, flag, value in cases:
        # bench and train cases keep the ids they had before the verb was a parameter
        shown = "" if verb in ("bench", "train") else f"{verb}-"
        params.append(pytest.param(via, verb, flag, value, id=f"{via}-{shown}{flag}-{value}"))
    return params


BAD_VALUES = bad_values()


class TestCountFlags:
    """Sizes, precisions and counts out of range exit 2 before any work."""

    @pytest.mark.parametrize("via,verb,flag,value", BAD_VALUES)
    def test_bad_value_exits_2(self, tmp_path, capsys, via, verb, flag, value):
        out = tmp_path / "t.bbm"
        argv = {"bench": ["bench"],
                "train": ["train", "--out", str(out)] + (["--n", "64"] if flag != "--n" else []),
                "eval": ["eval", "--model", str(tmp_path / "m.bbm")],
                "quantize": ["quantize", "--model", str(tmp_path / "m.bbm"), "--out", str(out),
                             "--M", "2", "--K", "2"]}[verb]
        if via == "argv":
            argv += [flag, value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{flag[2:]}={value}\n")
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("val_frac,empty", [("0.001", "0 of 64 rows for validation"),
                                                ("0.999", "0 for training")])
    def test_split_with_an_empty_side_exits_2(self, tmp_path, capsys, val_frac, empty):
        out = tmp_path / "t.bbm"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--n", "64", "--val-frac", val_frac, "--epochs", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--n and --val-frac" in captured.err and empty in captured.err
        assert captured.out == "" and not out.exists()

    def test_sizes_and_precisions_from_config(self, tmp_path, capsys):
        # the parsed defaults must compare equal to themselves, or the config is ignored
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("sizes=2x64x3\nprecisions=2x1\nrepeats=1\n")
        assert main(["bench", "--config", str(cfg)]) == 0
        rows = [line.split(",")[:6] for line in capsys.readouterr().out.splitlines()]
        assert rows == [["scalar_float", "0", "0", "2", "64", "3"],
                        ["blas_float", "0", "0", "2", "64", "3"],
                        ["packed", "2", "1", "2", "64", "3"]]


class TestInspectAndTable:
    def test_inspect_echoes_mixed_precisions(self, tmp_path, capsys):
        specs = [nn.dense(4, 8, m_bits=8, k_bits=7), nn.act_layer("htanh"),
                 nn.dense(8, 2, m_bits=4, k_bits=2)]
        rng = core.make_rng(0)
        weights = [rng.uniform(-1, 1, (8, 4)), None, rng.uniform(-1, 1, (2, 8))]
        path = tmp_path / "mixed.bbm"
        nn.save_model(nn.ModelState(stage="float", specs=specs, weights=weights), str(path))
        assert main(["inspect", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        assert "M=8 K=7" in out and "M=4 K=2" in out

    def test_speedup_table_two_bit_entry(self, capsys):
        assert main(["speedup-table"]) == 0
        assert "15.12" in capsys.readouterr().out

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--sizes", "1x128x1", "--precisions", "1x1",
                   "--repeats", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("kernel,M,K,P,N,Q,median_ns")
