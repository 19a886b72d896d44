"""The command-line interface."""

import pytest

from repro.cli import FIGURES, cmd_kernels, cmd_translate, main


def test_list_is_default(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig10", "translate"):
        assert name in out


def test_every_registered_figure_has_description():
    assert len(FIGURES) >= 12
    for name, (description, fn, _section) in FIGURES.items():
        assert description and callable(fn)


def test_kernels_listing():
    text = cmd_kernels()
    assert "rawcaudio" in text and "adpcm_enc" in text
    assert "172.mgrid" in text


def test_translate_accepted_kernel():
    text = cmd_translate("fig5")
    assert "II=4" in text
    assert "cca0" in text          # the reservation table
    assert "op16" in text          # the collapsed compound


def test_translate_rejected_kernel():
    text = cmd_translate("while_scan")
    assert "REJECTED" in text


def test_translate_unknown_kernel(capsys):
    assert main(["translate", "nonsense"]) == 2
    assert "unknown kernel" in capsys.readouterr().err


def test_figure_command_runs_and_writes(tmp_path, capsys):
    out_file = tmp_path / "fig2.txt"
    assert main(["fig2", "--output", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert "modulo%" in printed
    assert out_file.read_text().strip() in printed.strip()


def test_jobs_flag_is_gone(capsys):
    """A figure pass runs in one process; ``--jobs`` is a usage error."""
    with pytest.raises(SystemExit) as info:
        main(["fig3a", "--jobs", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_translate_command_via_main(capsys):
    assert main(["translate", "daxpy"]) == 0
    assert "II=" in capsys.readouterr().out


def test_trace_command_writes_figure_and_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    assert main(["trace", "fig2", "--output", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert "modulo%" in captured.out          # the figure, untouched
    assert str(trace_file) in captured.err    # the note, on stderr
    from repro.obs.schema import validate_trace_file
    count, errors = validate_trace_file(str(trace_file))
    assert errors == []
    assert count > 0


def test_trace_matches_untraced_figure_text(tmp_path, capsys):
    assert main(["fig2"]) == 0
    plain = capsys.readouterr().out
    assert main(["trace", "fig2", "--output",
                 str(tmp_path / "t.jsonl")]) == 0
    assert capsys.readouterr().out == plain


def test_figure_trace_flag(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    assert main(["fig2", "--trace", str(trace_file)]) == 0
    assert trace_file.exists()
    assert "modulo%" in capsys.readouterr().out


def test_stats_command(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    assert main(["trace", "fig2", "--output", str(trace_file)]) == 0
    capsys.readouterr()
    assert main(["stats", "--strict", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert "Spans" in captured.out
    assert "schema-valid" in captured.err


def test_stats_missing_file(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
    assert "no trace records" in capsys.readouterr().err


def test_stats_strict_rejects_bad_records(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seq": 0, "ts": 1.0, "kind": "span", '
                   '"component": "c", "message": "m", "details": {}}\n')
    assert main(["stats", "--strict", str(bad)]) == 1
    assert "schema violation" in capsys.readouterr().err


def test_serve_command_serves_every_request(monkeypatch, capsys):
    from repro.service import loadgen
    corpus = loadgen.request_corpus()[:3]
    monkeypatch.setattr(loadgen, "request_corpus", lambda: corpus)
    assert main(["serve", "--sessions", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 sessions x 3 translate requests over TCP" in out
    assert "served 6/6" in out
    assert "drained: yes  orphaned connections: 0" in out
