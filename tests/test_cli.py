"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import (
    EXIT_COMPLETED,
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    EXIT_RESOURCE_EXHAUSTED,
)
from repro.trace import TraceBuilder, save_text
from repro.trace.io import save_npz


@pytest.fixture
def trace_file(tmp_path):
    t = (TraceBuilder(2)
         .store(0, 0).store(0, 1).release(0, 100)
         .acquire(1, 100).load(1, 0).load(1, 1)
         .build("cli-demo"))
    path = str(tmp_path / "demo.trc")
    save_text(t, path)
    return path


@pytest.fixture
def racy_npz(tmp_path):
    t = TraceBuilder(2).store(0, 0).load(1, 0).build("racy")
    path = str(tmp_path / "racy.npz")
    save_npz(t, path)
    return path


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if a.dest == "command")
        assert set(subparsers.choices) == {
            "classify", "compare", "sweep", "simulate", "table1",
            "table2", "fig5", "fig6", "validate", "generate",
            "attribute", "traffic", "prefetch", "report",
            "trace", "diff", "history"}

    def test_timeout_help_describes_a_stall_timeout(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--timeout SECONDS" in help_text
        assert "stall" in help_text
        assert "wall-clock" not in help_text


class TestCommands:
    def test_classify_file(self, trace_file, capsys):
        assert main(["classify", trace_file, "--block", "8"]) == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out and "essential" in out

    def test_classify_named_workload(self, capsys):
        # use the smallest registered workload for speed
        assert main(["classify", "MATMUL24", "--block", "64"]) == 0
        assert "MATMUL24" in capsys.readouterr().out

    def test_classify_eggers(self, trace_file, capsys):
        assert main(["classify", trace_file, "--block", "8",
                     "--classifier", "eggers"]) == 0
        out = capsys.readouterr().out
        assert "CM=" in out and "essential" not in out

    def test_compare(self, trace_file, capsys):
        assert main(["compare", trace_file, "--block", "8"]) == 0
        out = capsys.readouterr().out
        for scheme in ("dubois", "eggers", "torrellas"):
            assert scheme in out

    def test_sweep(self, trace_file, capsys):
        assert main(["sweep", trace_file]) == 0
        assert "essential%" in capsys.readouterr().out

    def test_simulate_all(self, trace_file, capsys):
        assert main(["simulate", trace_file, "--block", "8"]) == 0
        out = capsys.readouterr().out
        for name in ("MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX"):
            assert name in out

    def test_simulate_single_protocol(self, trace_file, capsys):
        assert main(["simulate", trace_file, "--protocol", "MIN"]) == 0
        out = capsys.readouterr().out
        assert "MIN" in out and "OTF" not in out

    def test_validate_race_free(self, trace_file, capsys):
        assert main(["validate", trace_file]) == 0
        assert "race-free" in capsys.readouterr().out

    def test_validate_racy_exits_nonzero(self, racy_npz, capsys):
        assert main(["validate", racy_npz]) == 1
        assert "race" in capsys.readouterr().out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.npz")
        assert main(["generate", "MATMUL24", out_path]) == 0
        assert main(["classify", out_path]) == 0

    def test_generate_text_format(self, tmp_path):
        out_path = str(tmp_path / "gen.trc")
        assert main(["generate", "MATMUL24", out_path]) == 0

    def test_unknown_trace_spec_is_error(self, capsys):
        assert main(["classify", "NOT_A_THING"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_error(self, capsys):
        assert main(["classify", "missing.npz"]) == 2

    def test_traffic_command(self, trace_file, capsys):
        assert main(["traffic", trace_file, "--block", "8"]) == 0
        out = capsys.readouterr().out
        assert "bytes/ref" in out and "MIN" in out

    def test_prefetch_command(self, trace_file, capsys):
        assert main(["prefetch", trace_file]) == 0
        assert "CTS+PTS%" in capsys.readouterr().out

    def test_attribute_command_named_workload(self, capsys):
        assert main(["attribute", "MATMUL24", "--block", "32"]) == 0
        out = capsys.readouterr().out
        assert "misses by data structure" in out


class TestExitCodeContract:
    """The documented process exit codes are part of the CLI's API:
    wrappers (CI, the chaos harness, operators' shell scripts) dispatch
    on them, so the numeric values are frozen here."""

    def test_constant_values_are_frozen(self):
        assert EXIT_COMPLETED == 0
        assert EXIT_FAILED == 2
        assert EXIT_RESOURCE_EXHAUSTED == 3
        assert EXIT_INTERRUPTED == 75  # sysexits.h EX_TEMPFAIL: retryable

    def test_constants_are_distinct_and_leave_one_free(self):
        codes = {EXIT_COMPLETED, EXIT_FAILED, EXIT_RESOURCE_EXHAUSTED,
                 EXIT_INTERRUPTED}
        assert len(codes) == 4
        # validate's "trace has races" verdict uses plain exit 1 and must
        # never collide with an error class.
        assert 1 not in codes

    def test_runbook_exit_code_table_matches_errors_module(self):
        """The operator runbook's exit-code table is documentation of
        the same contract ``repro.errors`` freezes — a drifted table
        sends operators' scripts dispatching on the wrong numbers."""
        import os
        import re

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "docs", "runbook.md")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        section = re.search(r"## Exit codes\n(.*?)\n## ", text, re.S)
        assert section, "runbook lost its '## Exit codes' section"
        rows = re.findall(r"^\| `(\d+)` \| (.+?) \|", section.group(1),
                          flags=re.M)
        codes = {int(num): desc for num, desc in rows}
        assert set(codes) == {EXIT_COMPLETED, 1, EXIT_FAILED,
                              EXIT_RESOURCE_EXHAUSTED, EXIT_INTERRUPTED}, \
            f"runbook documents {sorted(codes)}"
        assert "completed" in codes[EXIT_COMPLETED]
        assert "validate" in codes[1]       # a verdict, not an error
        assert "failed" in codes[EXIT_FAILED]
        assert "resource" in codes[EXIT_RESOURCE_EXHAUSTED].lower()
        assert "resumable" in codes[EXIT_INTERRUPTED]
        # The constant names the runbook points readers at must exist
        # in repro.errors with these exact values.
        import repro.errors as errors_mod
        for name, value in (("EXIT_COMPLETED", EXIT_COMPLETED),
                            ("EXIT_FAILED", EXIT_FAILED),
                            ("EXIT_RESOURCE_EXHAUSTED",
                             EXIT_RESOURCE_EXHAUSTED),
                            ("EXIT_INTERRUPTED", EXIT_INTERRUPTED)):
            assert name in section.group(1) or name in text
            assert getattr(errors_mod, name) == value

    def test_success_maps_to_exit_completed(self, trace_file):
        assert main(["classify", trace_file, "--block", "8"]) \
            == EXIT_COMPLETED

    def test_repro_error_maps_to_exit_failed(self, capsys):
        assert main(["classify", "NOT_A_THING"]) == EXIT_FAILED
        assert "error:" in capsys.readouterr().err

    def test_resource_exhaustion_maps_to_exit_3(self, trace_file, capsys,
                                                monkeypatch):
        from repro import cli
        from repro.errors import ResourceExhaustedError

        def explode(args):
            raise ResourceExhaustedError("memory budget exceeded",
                                         kind="memory")

        # Drive main() through its own parser, swapping in a handler
        # that fails the way an over-budget sweep does.
        real_parse = cli.build_parser

        def patched_parser():
            p = real_parse()
            for action in p._actions:
                if action.dest == "command":
                    action.choices["classify"].set_defaults(func=explode)
            return p

        monkeypatch.setattr(cli, "build_parser", patched_parser)
        rc = cli.main(["classify", trace_file])
        assert rc == EXIT_RESOURCE_EXHAUSTED
        assert "error:" in capsys.readouterr().err

    def test_interrupt_maps_to_exit_75_with_resume_hint(self, trace_file,
                                                        capsys,
                                                        monkeypatch):
        from repro import cli
        from repro.errors import SweepInterrupted

        def interrupted(args):
            raise SweepInterrupted("sweep interrupted: 1 cell(s) journaled")

        real_parse = cli.build_parser

        def patched_parser():
            p = real_parse()
            for action in p._actions:
                if action.dest == "command":
                    action.choices["classify"].set_defaults(func=interrupted)
            return p

        monkeypatch.setattr(cli, "build_parser", patched_parser)
        rc = cli.main(["classify", trace_file])
        assert rc == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err  # tells the operator how to continue
