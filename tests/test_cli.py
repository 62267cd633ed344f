"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_operator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mappings", "NOPE"])

    def test_bad_params_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mappings", "GMM", "--params", "m8"])
        assert exc.value.code == 2  # argparse usage-error exit status
        err = capsys.readouterr().err
        assert "expected k=v" in err
        assert "usage:" in err  # parser.error prints the subcommand usage

    def test_non_integer_param_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mappings", "GMM", "--params", "m=eight"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be an integer" in err
        assert "usage:" in err

    def test_bad_params_rejected_on_compile(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "GMM", "--params", "m"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected k=v" in err
        assert "repro compile" in err  # usage names the failing subcommand


class TestTuningFlagBounds:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["compile", "GMM", "--params", "m=64", "n=64", "k=64"]
        )
        assert args.elite_fraction == 0.25
        assert args.mapping_mutation_prob == 0.15
        assert args.workers == 1  # in-process unless a pool is asked for
        assert args.eval_timeout is None
        assert args.max_retries == 2
        assert args.divergence_rate == 0.0

    def test_valid_values_accepted(self):
        args = build_parser().parse_args([
            "compile", "GMM", "--params", "m=64", "n=64", "k=64",
            "--elite-fraction", "0.5", "--mapping-mutation-prob", "0.0",
            "--workers", "4", "--eval-timeout", "0.5",
            "--max-retries", "0", "--divergence-rate", "1",
        ])
        assert args.elite_fraction == 0.5
        assert args.mapping_mutation_prob == 0.0
        assert (args.workers, args.eval_timeout) == (4, 0.5)
        assert (args.max_retries, args.divergence_rate) == (0, 1.0)

    def test_elite_fraction_zero_rejected(self, capsys):
        # (0, 1]: an elite fraction of zero would leave no parents at all.
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                "--elite-fraction", "0.0",
            ])
        assert exc.value.code == 2
        assert "not in (0, 1]" in capsys.readouterr().err

    def test_mutation_prob_above_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                "--mapping-mutation-prob", "1.5",
            ])
        assert exc.value.code == 2
        assert "not in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--workers", "0", "0 is not >= 1"),
            ("--workers", "-2", "-2 is not >= 1"),
            ("--workers", "two", "not an integer"),
            ("--eval-timeout", "-1", "-1.0 is not > 0"),
            ("--eval-timeout", "0", "0.0 is not > 0"),
            ("--max-retries", "-1", "-1 is not >= 0"),
            ("--divergence-rate", "2", "2.0 not in [0, 1]"),
            ("--divergence-rate", "-0.1", "-0.1 not in [0, 1]"),
        ],
    )
    def test_bad_execution_flags_rejected(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                flag, value,
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert "usage:" in err

    def test_non_numeric_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "GMM", "--params", "m=64", "n=64", "k=64",
                "--elite-fraction", "lots",
            ])
        assert exc.value.code == 2
        assert "not a number" in capsys.readouterr().err


class TestCommands:
    def test_list_hardware(self, capsys):
        assert main(["list-hardware"]) == 0
        out = capsys.readouterr().out
        assert "v100" in out and "mali_g76" in out

    def test_list_intrinsics_filtered(self, capsys):
        assert main(["list-intrinsics", "--target", "tensorcore"]) == 0
        out = capsys.readouterr().out
        assert "wmma_m16n16k16_f16" in out
        assert "mali" not in out

    def test_mappings_gemm(self, capsys):
        assert main(["mappings", "GMM", "--params", "m=32", "n=32", "k=32"]) == 0
        out = capsys.readouterr().out
        assert "total: 3" in out  # one mapping per WMMA shape
        assert "[i1, i2, r1]" in out

    def test_mappings_single_intrinsic(self, capsys):
        assert main([
            "mappings", "C2D", "--intrinsic", "wmma_m16n16k16_f16",
            "--params", "n=1", "c=4", "k=4", "h=6", "w=6", "--limit", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "35 valid mappings" in out
        assert "... 33 more" in out

    def test_compile_small(self, capsys):
        assert main([
            "compile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64",
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated latency" in out
        assert "mapping:" in out

    def test_compile_with_source(self, capsys):
        assert main([
            "compile", "GMM", "--hardware", "v100", "--source",
            "--params", "m=64", "n=64", "k=64",
        ]) == 0
        assert "wmma::mma_sync" in capsys.readouterr().out

    def test_network_with_baseline(self, capsys):
        assert main([
            "network", "mi_lstm", "--hardware", "v100",
            "--baseline", "pytorch",
        ]) == 0
        out = capsys.readouterr().out
        assert "mi_lstm on v100" in out
        assert "speedup" in out


class TestProfile:
    def test_profile_writes_trace_and_prints_report(self, capsys, tmp_path):
        import repro.obs as obs

        out = tmp_path / "trace.jsonl"
        assert main([
            "profile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64", "--out", str(out),
        ]) == 0
        report = capsys.readouterr().out
        # The four report sections the acceptance criteria name.
        assert "span timings" in report
        assert "mapping funnel" in report
        assert "genetic search convergence" in report
        assert "pairwise rank accuracy" in report
        assert "tuner.tune" in report
        # Profiling must not leave observability enabled behind.
        assert not obs.enabled()

        data = obs.load_jsonl(out)
        assert data["meta"]["operator"] == "gemm"
        assert data["spans"]
        assert data["samples"]
        funnel = data["funnel"]
        assert funnel["enumerated"] >= funnel["validated"] >= funnel["measured"] >= 1

    def test_report_rerenders_saved_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main([
            "profile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64", "--out", str(out),
        ]) == 0
        profile_out = capsys.readouterr().out
        assert main(["report", str(out)]) == 0
        report_out = capsys.readouterr().out
        # The report command reproduces the profile's report verbatim
        # (profile additionally prints the trace path afterwards).
        assert report_out.strip() in profile_out
