"""End-to-end tests for document parsing, report emission, and exit codes."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from invcert import ControlNet, PatchGrid, GeneratorSet, lpsolve
from invcert.cli import (
    InputDocument,
    InputError,
    emit_report,
    main,
    parse_input,
    run,
)

from invcert import cli
from invcert.oracle import MAX_TRIALS

from helpers import document_to_json, identity_grid_2x2, identity_net, quad_net
from oracles import reference_sampled_injectivity

IDENTITY_PATCH_DOC = json.dumps({
    "mode": "bb-patch",
    "dimension": 2,
    "degrees": [1, 1],
    "control_points": [[[0, 0], [0, 1]], [[1, 0], [1, 1]]],
})

MATRIX_DOC = json.dumps({
    "mode": "matrix-family",
    "dimension": 2,
    "columns": [[[1, 0]], [[0, 1]]],
})

FOLDED_DOC = json.dumps({
    "mode": "bb-patch",
    "dimension": 2,
    "degrees": [1, 1],
    "control_points": [[[0, 0], [0, 1]], [[1, 0], [0.1, 0.1]]],
})

COLLAPSED_DOC = json.dumps({
    "mode": "bb-patch",
    "dimension": 2,
    "degrees": [1, 1],
    "control_points": [[[0, 0], [1, 1]], [[1, 1], [2, 2]]],
})

DEGENERATE_DOC = json.dumps({
    "mode": "matrix-family",
    "dimension": 2,
    "columns": [[[0, 0]], [[0, 1]]],
})

GRID_DOC = json.dumps({
    "mode": "bb-grid",
    "dimension": 2,
    "breakpoints": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
    "patches": [
        {
            "cell": [cx, cy],
            "degrees": [1, 1],
            "control_points": [
                [[0.5 * cx, 0.5 * cy], [0.5 * cx, 0.5 * cy + 0.5]],
                [[0.5 * cx + 0.5, 0.5 * cy], [0.5 * cx + 0.5, 0.5 * cy + 0.5]],
            ],
        }
        for cx in range(2) for cy in range(2)
    ],
})


class TestParseInput:
    def test_minimal_matrix_family(self):
        doc = parse_input(MATRIX_DOC)
        assert doc.mode == "matrix-family"
        assert doc.dimension == 2
        assert [col.vectors.tolist() for col in doc.payload] == [[[1, 0]], [[0, 1]]]

    def test_bb_patch_quad(self):
        doc = parse_input(json.dumps({
            "mode": "bb-patch", "dimension": 2, "degrees": [1, 1],
            "control_points": [[[0, 0], [0, 1]], [[1, 0], [2, 2]]],
        }))
        assert isinstance(doc.payload, ControlNet)
        np.testing.assert_array_equal(doc.payload.points, quad_net().points)

    def test_wrong_coordinate_count_names_the_index(self):
        bad = json.dumps({
            "mode": "bb-patch", "dimension": 2, "degrees": [1, 1],
            "control_points": [[[0, 0], [0, 1, 5]], [[1, 0], [1, 1]]],
        })
        with pytest.raises(InputError, match=r"control_points\[0\]\[1\]"):
            parse_input(bad)

    def test_bad_json_rejected(self):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_input("{nope")

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError, match="mode"):
            parse_input(json.dumps({"mode": "weird", "dimension": 2}))

    def test_nonfinite_number_rejected(self):
        with pytest.raises(InputError, match="finite"):
            parse_input(json.dumps({
                "mode": "matrix-family", "dimension": 2,
                "columns": [[[1, 0]], [[0, float("inf")]]],
            }))

    def test_wrong_axis_count_rejected(self):
        with pytest.raises(InputError, match="axis 0"):
            parse_input(json.dumps({
                "mode": "bb-patch", "dimension": 2, "degrees": [1, 1],
                "control_points": [[[0, 0], [0, 1]]],
            }))

    def test_grid_cell_out_of_range(self):
        body = json.loads(GRID_DOC)
        body["patches"][0]["cell"] = [5, 0]
        with pytest.raises(InputError, match=r"cell\[0\]"):
            parse_input(json.dumps(body))

    def test_options_validated(self):
        with pytest.raises(InputError, match="options.delta"):
            parse_input(json.dumps({
                "mode": "matrix-family", "dimension": 2,
                "columns": [[[1, 0]], [[0, 1]]],
                "options": {"delta": -1.0},
            }))

DEGREE_ZERO_CELL_DOC = json.dumps({
    "mode": "bb-grid",
    "dimension": 2,
    "breakpoints": [[0.0, 0.5, 1.0], [0.0, 1.0]],
    "patches": [
        {"cell": [0, 0], "degrees": [1, 0], "control_points": [[[0.0, 0.0]], [[0.5, 0.0]]]},
        {"cell": [1, 0], "degrees": [1, 1],
         "control_points": [[[0.5, 0.0], [0.5, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]},
    ],
})


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [
        InputDocument("bb-patch", 2, quad_net(), delta=1e-10, threshold=1e-6, fmt="structured"),
        InputDocument("bb-grid", 2, identity_grid_2x2()),
        InputDocument("matrix-family", 2,
                      [GeneratorSet(0, [[1.0, 0.0], [2.0, 1.0]]),
                       GeneratorSet(1, [[0.0, 1.0]])]),
    ])
    def test_emit_then_parse_reproduces_document(self, doc):
        parsed = parse_input(document_to_json(doc))
        assert parsed.mode == doc.mode
        assert parsed.dimension == doc.dimension
        assert parsed.delta == doc.delta
        assert parsed.threshold == doc.threshold
        assert parsed.fmt == doc.fmt
        if doc.mode == "bb-patch":
            assert parsed.payload.degrees == doc.payload.degrees
            assert np.array_equal(parsed.payload.points, doc.payload.points)
        elif doc.mode == "bb-grid":
            assert parsed.payload.cells() == doc.payload.cells()
            for a, b in zip(parsed.payload.breakpoints, doc.payload.breakpoints):
                assert np.array_equal(a, b)
            for cell in doc.payload.cells():
                assert np.array_equal(parsed.payload.patches[cell].points,
                                      doc.payload.patches[cell].points)
        else:
            for a, b in zip(parsed.payload, doc.payload):
                assert a.column == b.column
                assert np.array_equal(a.vectors, b.vectors)


class TestRunAndEmit:
    def test_identity_grid_report(self):
        report = run(parse_input(GRID_DOC))
        assert report.verdict == "strict-v-family"

    def test_quad_document_certifies_with_pattern_margins(self):
        report = run(parse_input(json.dumps({
            "mode": "bb-patch", "dimension": 2, "degrees": [1, 1],
            "control_points": [[[0, 0], [0, 1]], [[1, 0], [2, 2]]],
        })))
        assert report.verdict == "strict-v-family"
        eps = {r.pattern.signs: r.certificate.epsilon for r in report.pattern_results}
        assert eps[(1, -1)] == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-9)

    def test_collapsed_report_has_witness(self):
        report = run(parse_input(COLLAPSED_DOC))
        text = emit_report(report, "text")
        assert "verdict: NOT-CERTIFIED" in text
        assert "witness (+ -)" in text

    def test_identity_text_contains_verdict_line(self):
        report = run(parse_input(IDENTITY_PATCH_DOC))
        assert "verdict: STRICT-V-FAMILY" in emit_report(report, "text")

    def test_identity_structured_fields(self):
        report = run(parse_input(IDENTITY_PATCH_DOC))
        payload = json.loads(emit_report(report, "structured"))
        assert payload["verdict"] == "strict-v-family"
        assert len(payload["pattern_results"]) == 2

    def test_degenerate_text_names_column(self):
        report = run(parse_input(DEGENERATE_DOC))
        assert "DEGENERATE column 1" in emit_report(report, "text")

    def test_structured_reports_are_byte_identical(self):
        one = emit_report(run(parse_input(GRID_DOC)), "structured")
        two = emit_report(run(parse_input(GRID_DOC)), "structured")
        assert one.encode() == two.encode()


class TestMainExitCodes:
    def write(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return str(path)

    def test_certified_exits_zero(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: STRICT-V-FAMILY" in out

    def test_not_certified_exits_one(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, COLLAPSED_DOC)])
        assert code == 1
        assert "NOT-CERTIFIED" in capsys.readouterr().out

    def test_degenerate_exits_two(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, DEGENERATE_DOC)])
        assert code == 2
        assert "DEGENERATE column 1" in capsys.readouterr().out

    def test_parse_error_exits_three(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, "{broken")])
        assert code == 3
        assert "invalid input" in capsys.readouterr().err

    def test_internal_error_exits_four(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("simplex iteration limit exceeded")

        monkeypatch.setattr(lpsolve, "_run_simplex", broken)
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "invcert: internal error: simplex iteration limit exceeded\n"

    @pytest.mark.parametrize("flag", ["--delta", "--threshold"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_flag_must_be_finite_and_positive(self, tmp_path, capsys, flag, value):
        code = main(["--input", self.write(tmp_path, MATRIX_DOC), flag, value])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"invcert: {flag} must be finite and positive\n"

    def test_missing_file_exits_three(self, capsys):
        code = main(["--input", "/nonexistent/doc.json"])
        assert code == 3

    def test_flag_overrides_format(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC),
                     "--format", "structured"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "strict-v-family"

    def test_oracle_flag_reports_agreement(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, COLLAPSED_DOC),
                     "--oracle", "1000", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 1
        assert "oracle collision: u (" in out
        assert "consistent" in out

    def test_oracle_flag_structured(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC),
                     "--format", "structured", "--oracle", "200", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["collided"] is False

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_oracle_output_matches_sequential_reference(self, tmp_path, capsys,
                                                        monkeypatch, fmt):
        runs = []
        for k, doc in enumerate((FOLDED_DOC, COLLAPSED_DOC, IDENTITY_PATCH_DOC, GRID_DOC)):
            path = tmp_path / f"doc-{k}.json"
            path.write_text(doc)
            for trials, seed in (("3", "0"), ("50", "6"), ("2000", "7")):
                runs.append(["--input", str(path), "--format", fmt,
                             "--oracle", trials, "--seed", seed])
        outputs = []
        for argv in runs:
            outputs.append((main(argv), capsys.readouterr()))
        monkeypatch.setattr(cli, "sampled_injectivity", reference_sampled_injectivity)
        for argv, expected in zip(runs, outputs):
            assert (main(argv), capsys.readouterr()) == expected, argv
        assert sum("oracle collision: u" in out.out or '"f_u"' in out.out
                   for _, out in outputs) >= 3

    @pytest.mark.parametrize("trials", ["0", str(MAX_TRIALS + 1), "1000000000000"])
    def test_oracle_trials_out_of_range_exit_three(self, tmp_path, capsys, trials):
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC), "--oracle", trials])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"invcert: --oracle takes 1 to {MAX_TRIALS} trials\n"

    def test_negative_seed_exits_three(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC),
                     "--oracle", "10", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "invcert: --seed must be a non-negative integer\n"

    def test_huge_oracle_in_a_process_of_its_own(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "invcert", "--input", self.write(tmp_path, IDENTITY_PATCH_DOC),
             "--oracle", "1000000000000"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"invcert: --oracle takes 1 to {MAX_TRIALS} trials"]

    def test_per_patch_flag(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, GRID_DOC), "--per-patch"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-patch verdicts:" in out
        assert "cell (0, 0): STRICT-V-FAMILY" in out

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_per_patch_with_a_degree_zero_cell(self, tmp_path, capsys, fmt):
        # Cell (0, 0) is constant along axis 1: its sub-report is degenerate
        # in column 2, the other cell is certified as usual, and the whole
        # map is degenerate, as it is without --per-patch.
        code = main(["--input", self.write(tmp_path, DEGREE_ZERO_CELL_DOC), "--per-patch",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        if fmt == "text":
            assert "DEGENERATE column 2" in captured.out
            assert "cell (0, 0): NOT-CERTIFIED" in captured.out
            assert "cell (1, 0): STRICT-V-FAMILY" in captured.out
            return
        payload = json.loads(captured.out)
        assert payload["degenerate_column"] == 1
        first, second = payload["per_patch"]
        assert first["cell"] == [0, 0]
        assert first["report"]["degenerate_column"] == 1
        assert first["report"]["provenance"] == "single-patch"
        assert {r["status"] for r in first["report"]["pattern_results"]} == {"degenerate"}
        assert second["cell"] == [1, 0]
        assert second["report"]["verdict"] == "strict-v-family"

    def test_oracle_skipped_for_matrix_family(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, MATRIX_DOC), "--oracle", "10"])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped" in captured.err

    def test_subprocess_entry_point(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(DEGENERATE_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "invcert", "--input", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "DEGENERATE column 1" in proc.stdout

    def test_usage_error_exits_three(self):
        proc = subprocess.run(
            [sys.executable, "-m", "invcert", "--no-such-flag"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3


def patch_doc(points, **extra) -> str:
    points = np.asarray(points, dtype=float)
    return json.dumps({"mode": "bb-patch", "dimension": points.shape[-1],
                       "degrees": [s - 1 for s in points.shape[:-1]],
                       "control_points": points.tolist(), **extra})


HUGE_LINEAR_DOC = patch_doc([[[0, 0], [0, 1e200]], [[1e200, 0], [1e200, 1e200]]])
OVERFLOWING_DERIVATIVE_DOC = patch_doc([[[-1e308, 0], [-1e308, 1]], [[1e308, 0], [1e308, 1]]])


def cli_small_like_documents() -> list[tuple[str, list[str]]]:
    """Documents of the kinds the benchmark's CLI workload sends, with their flags."""
    rng = np.random.default_rng(21)
    docs = []
    identity = np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], dtype=float)
    for k in range(8):
        docs.append((patch_doc(identity + rng.uniform(-0.6, 0.6, size=(2, 2, 2))), []))
        quad = np.array([[[0, 0], [0, 1]], [[1, 0], [2, 2]]]) + rng.uniform(-0.05, 0.05, (2, 2, 2))
        docs.append((patch_doc(quad, options={"format": "structured"}), []))
        axes = [np.linspace(0.0, 1.0, p + 1) for p in (1 + k % 2, 2)]
        net = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        docs.append((patch_doc(net + rng.uniform(-0.3, 0.3, size=net.shape)), []))
        n = 2 + k % 3
        columns = [(np.eye(n)[j] + (0.2 + k % 2) * rng.normal(size=(6, n))).tolist()
                   for j in range(n)]
        docs.append((json.dumps({"mode": "matrix-family", "dimension": n,
                                 "columns": columns}), []))
        docs.append((patch_doc(np.array([[[0.0, 0.0]], [[1.0, 0.1]]])), []))
        docs.append((GRID_DOC, ["--per-patch"]))
    docs.append((COLLAPSED_DOC, ["--oracle", "200"]))
    docs.append((HUGE_LINEAR_DOC, []))
    docs.append((MATRIX_DOC.replace("[[1, 0]]", "[[1e-170, 0]]")[:-1]
                 + ', "options": {"delta": 1e-200}}', []))
    return docs


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestExtremeSizes:
    def write(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return str(path)

    def test_huge_linear_map_certifies(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--input", self.write(tmp_path, HUGE_LINEAR_DOC)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "min generator norm per column: 1e+200 1e+200" in captured.out

    def test_derivative_overflow_exits_three(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--input", self.write(tmp_path, OVERFLOWING_DERIVATIVE_DOC)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "invcert: derivative control points overflow\n"

    def test_norm_beyond_float_range_exits_three(self, tmp_path, capsys):
        doc = MATRIX_DOC.replace("[[1, 0]]", "[[1.5e308, 1.5e308]]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--input", self.write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("invcert: column 0 has a generator whose norm "
                                "exceeds the float range\n")

    def test_tiny_generator_with_tiny_delta_certifies(self, tmp_path, capsys):
        doc = MATRIX_DOC.replace("[[1, 0]]", "[[1e-170, 0]]")
        code = main(["--input", self.write(tmp_path, doc), "--delta", "1e-200"])
        assert code == 0
        assert "min generator norm per column: 1e-170 1" in capsys.readouterr().out

    def test_derivative_overflow_in_a_process_of_its_own(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "invcert", "--input",
             self.write(tmp_path, OVERFLOWING_DERIVATIVE_DOC)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "invcert: derivative control points overflow\n"


class TestStructuredOutputIsJson:
    def test_cli_small_like_corpus_parses_strictly(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        codes = set()
        for text, flags in cli_small_like_documents():
            path.write_text(text)
            codes.add(main(["--input", str(path), "--format", "structured", *flags]))
            captured = capsys.readouterr()
            json.loads(captured.out, parse_constant=reject_constant)
        assert codes == {0, 1, 2}


class TestParser:
    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reuse_keeps_no_state_between_calls(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(IDENTITY_PATCH_DOC)
        first = main(["--input", str(path), "--format", "structured", "--delta", "0.5"])
        first_out = capsys.readouterr().out
        assert json.loads(first_out)["delta"] == 0.5
        with pytest.raises(SystemExit) as exit_info:
            main(["--no-such-flag"])
        assert exit_info.value.code == 3
        capsys.readouterr()
        assert main(["--input", str(path)]) == first == 0
        out = capsys.readouterr().out
        assert "delta: 1e-12" in out
        assert main(["--input", str(path), "--format", "structured", "--delta", "0.5"]) == 0
        assert capsys.readouterr().out == first_out
