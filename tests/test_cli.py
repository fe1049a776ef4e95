"""End-to-end tests for document parsing, report emission, and exit codes."""

import itertools
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from invcert import ControlNet, PatchGrid, GeneratorSet, certify_matrix_family, lpsolve
from invcert.cli import (
    InputDocument,
    InputError,
    emit_report,
    main,
    parse_input,
    run,
)

from invcert import cli
from invcert.oracle import MAX_TRIALS, CollisionReport

from helpers import (
    document_to_json,
    identity_grid_2x2,
    identity_net,
    invalid_input_documents,
    near_identity_columns,
    quad_net,
)
from oracles import check_collision_witness

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


def bad_grid(*breakpoints, cells=None) -> str:
    """A bb-grid document on these breakpoints, one unit-square patch per cell given.

    By default every cell the breakpoint counts ask for gets its patch.
    """
    if cells is None:
        cells = [list(c) for c in itertools.product(*(range(len(b) - 1) for b in breakpoints))]
    square = [[[0, 0], [0, 1]], [[1, 0], [1, 1]]]
    return json.dumps({"mode": "bb-grid", "dimension": 2, "breakpoints": list(breakpoints),
                       "patches": [{"cell": c, "degrees": [1, 1], "control_points": square}
                                   for c in cells]})


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

    @pytest.mark.parametrize("body, message", [
        (bad_grid([0.0, 1.0, 1.0], [0.0, 0.5, 1.0]),
         "axis 0: breakpoints must be strictly increasing"),
        (bad_grid([0.0, 0.5, 1.0], [0.0, 1.0], cells=[[0, 0]]),
         "grid of shape (2, 1) needs one patch per cell; missing [(1, 0)], unexpected []"),
        (bad_grid([0.0, 0.5, 2.0], [0.0, 0.5, 1.0]),
         "axis 0: breakpoints must start at 0 and end at 1"),
    ], ids=["not-increasing", "missing-cell", "not-unit-interval"])
    def test_grid_constructor_errors_are_input_errors(self, body, message):
        with pytest.raises(InputError, match=f"^{re.escape('breakpoints/patches: ' + message)}$"):
            parse_input(body)

    def test_grid_constructor_error_exits_three(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(bad_grid([0.0, 0.5, 1.0], [0.0, 1.0], cells=[[0, 0]]))
        code = main(["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("invcert: invalid input: breakpoints/patches: grid of shape "
                                "(2, 1) needs one patch per cell; missing [(1, 0)], "
                                "unexpected []\n")

    def test_options_validated(self):
        with pytest.raises(InputError, match="options.delta"):
            parse_input(json.dumps({
                "mode": "matrix-family", "dimension": 2,
                "columns": [[[1, 0]], [[0, 1]]],
                "options": {"delta": -1.0},
            }))

    @pytest.mark.parametrize("doc, message", [
        # The messages the tests above match in part, whole.
        ({"control_points": [[[0, 0], [0, 1, 5]], [[1, 0], [1, 1]]]},
         ".control_points[0][1]: expected 2 coordinates, got 3"),
        ({"mode": "weird"}, "mode: expected one of ('bb-patch', 'bb-grid', 'matrix-family'), "
                            "got 'weird'"),
        ({"columns": [[[1, 0]], [[0, float("inf")]]]},
         "columns[1][0][1]: number must be finite, got inf"),
        ({"control_points": [[[0, 0], [0, 1]]]},
         ".control_points: expected 2 entries along axis 0, got 1"),
        ({"cell": (0, [5, 0])}, "patches[0].cell[0]: cell index 5 out of range for axis 0"),
        ({"options": {"delta": -1.0}}, "options.delta: must be positive"),
        # Coordinates and integers that fail a check of their own.
        ({"columns": [[[1, 0]], [[0, "1"]]]}, "columns[1][0][1]: expected a number, got '1'"),
        ({"columns": [[[1, 0]], [[True, 1]]]}, "columns[1][0][0]: expected a number, got True"),
        ({"columns": [[[1, 0]], [[0, None]]]}, "columns[1][0][1]: expected a number, got None"),
        ({"columns": [[[1, 0]], [5]]}, "columns[1][0]: expected a coordinate list"),
        ({"columns": [[[1, 0]], [[0.5, 1, 2]]]}, "columns[1][0]: expected 2 coordinates, got 3"),
        ({"control_points": [5, 5]}, ".control_points[0]: expected a nested list"),
        ({"control_points": [[[0, 0], [0, 1.0]], [[1, 0], [1, float("nan")]]]},
         ".control_points[1][1][1]: number must be finite, got nan"),
        ({"degrees": [1, 1.5]}, ".degrees[1]: expected an integer, got 1.5"),
        ({"degrees": [1]}, ".degrees: expected 2 entries, got 1"),
        ({"cell": (0, [0, 0, 0])}, "patches[0].cell: expected 2 entries, got 3"),
        ({"cell": (1, [0, 0])}, "patches[1].cell: duplicate cell [0, 0]"),
    ], ids=["coordinate-count", "mode", "not-finite", "axis-count", "cell-range", "delta",
            "string", "bool", "null", "not-a-list", "too-many", "not-nested", "nan",
            "degree", "degree-count", "cell-count", "duplicate-cell"])
    def test_every_message_is_pinned(self, tmp_path, capsys, doc, message):
        # Each change lands in a valid document of its mode, which parses as it
        # stands; ``cell`` is a patch's position and the cell it then names.
        base = json.loads(MATRIX_DOC if "columns" in doc else
                          GRID_DOC if "cell" in doc else IDENTITY_PATCH_DOC)
        parse_input(json.dumps(base))
        if "cell" in doc:
            k, cell = doc["cell"]
            base["patches"][k]["cell"] = cell
        else:
            base.update(doc)
        text = json.dumps(base)
        with pytest.raises(InputError) as caught:
            parse_input(text)
        assert str(caught.value) == message
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["--input", str(path)]) == 3
        assert capsys.readouterr().err == f"invcert: invalid input: {message}\n"

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
        # The collapsed patch's column means coincide, so its patterns reach the LP.
        code = main(["--input", self.write(tmp_path, COLLAPSED_DOC)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "invcert: internal error: simplex iteration limit exceeded\n"

    def test_unbounded_margin_lp_exits_four(self, tmp_path, capsys, monkeypatch):
        # A margin LP's objective is at most 0, so only round-off could make
        # the kernel report one unbounded; the first member of each batch is
        # reported so here.
        exact = lpsolve._run_simplex

        def first_unbounded(T, obj, basis):
            order, unbounded, pivots = exact(T, obj, basis)
            unbounded[0] = True
            return order, unbounded, pivots

        monkeypatch.setattr(lpsolve, "_run_simplex", first_unbounded)
        # Both columns have the same mean, so every pattern reaches the LP.
        columns = [GeneratorSet(0, [[1.0, 1.0]]), GeneratorSet(1, [[1.0, 1.0]])]
        with pytest.raises(RuntimeError, match="unbounded"):
            certify_matrix_family(columns)
        code = main(["--input", self.write(tmp_path, COLLAPSED_DOC)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("invcert: internal error: ")
        assert captured.err.endswith("\n")

    @pytest.mark.parametrize("n", [64, 65])
    def test_too_many_patterns_exits_three(self, tmp_path, capsys, n):
        # 2^(n-1) patterns cannot be indexed by int64; they are refused
        # before any array is built.
        doc = json.dumps({"mode": "matrix-family", "dimension": n,
                          "columns": np.eye(n)[:, None, :].tolist()})
        code = main(["--input", self.write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == \
            f"invcert: {n} columns need 2^{n - 1} sign patterns, too many to enumerate\n"

    def test_patterns_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        # The enumeration's first array of 2^33 rows raises MemoryError here
        # without allocating, as it would on a machine without the room.
        exact = np.arange

        def arange(*args, **kwargs):
            if isinstance(args[0], int) and args[0] >= 1 << 32:
                raise MemoryError
            return exact(*args, **kwargs)

        monkeypatch.setattr(np, "arange", arange)
        doc = json.dumps({"mode": "matrix-family", "dimension": 34,
                          "columns": np.eye(34)[:, None, :].tolist()})
        code = main(["--input", self.write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == \
            "invcert: 34 columns need 2^33 sign patterns, too many to enumerate\n"

    def test_out_of_memory_outside_the_enumeration_exits_three(self, tmp_path, capsys,
                                                               monkeypatch):
        # A margin LP stack grows with the generator count; here the first one
        # raises MemoryError without allocating, as it would without the room.
        def no_room(*args):
            raise MemoryError

        monkeypatch.setattr(lpsolve, "margin_lps", no_room)
        doc = json.dumps({"mode": "matrix-family", "dimension": 2,
                          "columns": [[[1, 0], [-1, 0.2]], [[0, 1], [0.3, -1]]]})
        code = main(["--input", self.write(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "invcert: not enough memory for this input\n"

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

    def test_rejection_without_collision_is_no_contradiction(self, tmp_path, capsys):
        body = json.loads(IDENTITY_PATCH_DOC)
        body["options"] = {"threshold": 1e300}
        code = main(["--input", self.write(tmp_path, json.dumps(body)), "--oracle", "500"])
        out = capsys.readouterr().out
        assert code == 1
        assert "oracle agreement: no contradiction (rejection does not imply " \
            "non-injectivity)" in out.splitlines()

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_soundness_violation_is_reported_but_keeps_the_exit_code(self, tmp_path, capsys,
                                                                       monkeypatch, fmt):
        # The agreement line reports; the exit code follows the verdict alone.
        def colliding(map_like, trials, seed):
            u, v = np.array([0.25, 0.5]), np.array([0.75, 0.5])
            return CollisionReport(True, (u, v, u.copy(), u.copy()), trials, seed)

        monkeypatch.setattr(cli, "sampled_injectivity", colliding)
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC), "--format", fmt,
                     "--oracle", "10"])
        out = capsys.readouterr().out
        assert code == 0
        agreement = "SOUNDNESS VIOLATION: certified map with observed collision"
        if fmt == "text":
            assert "verdict: STRICT-V-FAMILY" in out
            assert f"oracle agreement: {agreement}" in out.splitlines()
        else:
            payload = json.loads(out)
            assert payload["verdict"] == "strict-v-family"
            assert payload["oracle"]["collided"] is True
            assert payload["oracle"]["agreement"] == agreement

    def test_oracle_flag_structured(self, tmp_path, capsys):
        code = main(["--input", self.write(tmp_path, IDENTITY_PATCH_DOC),
                     "--format", "structured", "--oracle", "200", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["collided"] is False

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_oracle_witnesses_meet_the_contract(self, tmp_path, capsys, fmt):
        # Text shows a witness to 6 digits: it must be the structured
        # witness of the same run, rounded, and that one must hold exactly.
        collided = 0
        for k, doc in enumerate((FOLDED_DOC, COLLAPSED_DOC, IDENTITY_PATCH_DOC, GRID_DOC)):
            path = tmp_path / f"doc-{k}.json"
            path.write_text(doc)
            map_like = parse_input(doc).payload
            for trials, seed in (("3", "0"), ("50", "6"), ("2000", "0"), ("2000", "7")):
                argv = ["--input", str(path), "--oracle", trials, "--seed", seed]
                main(argv + ["--format", "structured"])
                pair = json.loads(capsys.readouterr().out)["oracle"]["witness"]
                witness = None if pair is None else [pair[key] for key in ("u", "v", "f_u", "f_v")]
                if witness is not None:
                    check_collision_witness(map_like, witness)
                    collided += 1
                if fmt == "text":
                    main(argv)
                    (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                               if ln.startswith("oracle collision: ")]
                    if witness is None:
                        assert line == "oracle collision: none"
                    else:
                        shown = [float(x) for x in re.findall(r"[-+0-9.e]+(?=[,)])", line)]
                        np.testing.assert_allclose(shown, np.concatenate(witness), rtol=1e-5)
        assert collided >= 3

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
        # in column 2 and lists no patterns, the other cell is certified as
        # usual, and the whole map is degenerate, as it is without
        # --per-patch.
        code = main(["--input", self.write(tmp_path, DEGREE_ZERO_CELL_DOC), "--per-patch",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        if fmt == "text":
            assert "DEGENERATE column 2" in captured.out
            assert "generators per column: 1 2" in captured.out
            assert "cell (0, 0): NOT-CERTIFIED" in captured.out
            assert "cell (1, 0): STRICT-V-FAMILY" in captured.out
            return
        payload = json.loads(captured.out)
        assert payload["degenerate_column"] == 1
        first, second = payload["per_patch"]
        assert first["cell"] == [0, 0]
        assert first["report"]["degenerate_column"] == 1
        assert first["report"]["provenance"] == "single-patch"
        assert first["report"]["pattern_results"] == []
        assert first["report"]["generator_counts"] == [1, 1]
        assert second["cell"] == [1, 0]
        assert second["report"]["verdict"] == "strict-v-family"

    def test_wide_constant_patch_lists_no_patterns(self, tmp_path, capsys):
        # Degree 0 along all 20 axes: every column is zero, and the report
        # says so without enumerating the 2^19 sign patterns.
        code = main(["--input", self.write(tmp_path, constant_patch_doc(20)),
                     "--format", "structured"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["pattern_results"] == []
        assert payload["degenerate_column"] == 0
        assert payload["generator_counts"] == [1] * 20

    @pytest.mark.parametrize("n, seed, noise", [(12, 12, 0.05), (8, 2, 0.15)],
                             ids=["12-columns-closed-form", "8-columns-some-lp"])
    def test_near_identity_family_splits_between_closed_form_and_lp(self, tmp_path, capsys,
                                                                    n, seed, noise):
        # Every pattern of the 12-column family is certified in closed form;
        # the 8-column family leaves some, not all, to the LP. The report
        # checked its certificates once, as one stack; each is checked again
        # here as the JSON gives it.
        doc = family_doc(near_identity_columns(np.random.default_rng(seed), n, noise=noise))
        code = main(["--input", self.write(tmp_path, doc), "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        patterns = json.loads(captured.out)["pattern_results"]
        assert len(patterns) == 2 ** (n - 1)
        with_lp = sum(p["lp_margin"] is not None for p in patterns)
        assert with_lp == 0 if n == 12 else 0 < with_lp < len(patterns)
        a = np.array([p["certificate"]["a"] for p in patterns])
        epsilon = np.array([p["certificate"]["epsilon"] for p in patterns])
        assert np.all(np.abs(np.linalg.norm(a, axis=1) - 1.0) <= 1e-12)
        assert np.all(np.isfinite(epsilon) & (epsilon > 0.0))

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


def family_doc(columns: list[GeneratorSet]) -> str:
    return json.dumps({"mode": "matrix-family", "dimension": len(columns),
                       "columns": [col.vectors.tolist() for col in columns]})


def constant_patch_doc(axes: int) -> str:
    """A patch of degree 0 along every axis: every column is zero."""
    points: object = [0.5] * axes
    for _ in range(axes):
        points = [points]
    return json.dumps({"mode": "bb-patch", "dimension": axes, "degrees": [0] * axes,
                       "control_points": points})


def zero_column_family_doc(n: int, column: int) -> str:
    """The identity family with one column replaced by the zero vector."""
    columns = [GeneratorSet(j, [np.eye(n)[j]]) for j in range(n)]
    columns[column] = GeneratorSet(column, [np.zeros(n)])
    return family_doc(columns)


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

    def test_tiny_linear_map_certifies_and_does_not_collide(self, tmp_path, capsys):
        # Squared image differences of x -> 1e-160 x underflow; the oracle's
        # rescued norms see the map as the identity scaled down.
        doc = patch_doc([[[0, 0], [0, 1e-160]], [[1e-160, 0], [1e-160, 1e-160]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--input", self.write(tmp_path, doc), "--delta", "1e-320",
                         "--oracle", "200", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "oracle agreement: consistent (certified, no collision found)" in \
            captured.out.splitlines()

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


class TestInputBeyondTheSchemaChecks:
    """Documents that used to end in a traceback and exit code 1."""

    @pytest.mark.parametrize("name, message", [
        ("huge-control-point", ".control_points[1][0]: integer is beyond the float range"),
        ("huge-delta", "options.delta: integer is beyond the float range"),
        ("not-utf-8", "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 124: "
                      "invalid continuation byte"),
        ("65-axes", ".control_points: 65 axes need an array of 66 axes, more than numpy allows"),
        ("5000-digit-integer", "cannot decode JSON: Exceeds the limit (4300 digits) for "
                               "integer string conversion"),
    ])
    def test_exits_three_with_one_line(self, tmp_path, capsys, name, message):
        path = tmp_path / "doc.json"
        path.write_bytes(invalid_input_documents()[name])
        code = main(["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"invcert: invalid input: {message}")
        assert captured.err.count("\n") == 1

    def test_nesting_beyond_the_recursion_limit_in_a_process_of_its_own(self):
        proc = subprocess.run(
            [sys.executable, "-m", "invcert"], input=invalid_input_documents()["deep-nesting"],
            capture_output=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            "invcert: invalid input: cannot decode JSON: maximum recursion depth exceeded "
            "while decoding a JSON array from a unicode string"]

    def test_standard_input_must_be_utf_8_too(self):
        proc = subprocess.run([sys.executable, "-m", "invcert"],
                              input=invalid_input_documents()["not-utf-8"], capture_output=True)
        assert proc.returncode == 3
        assert proc.stderr.decode().startswith("invcert: invalid input: not UTF-8 text")

    def test_the_not_utf_8_document_is_valid_apart_from_one_byte(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(invalid_input_documents()["not-utf-8"].replace(b"\xe9", b"e"))
        assert main(["--input", str(path)]) == 0
        capsys.readouterr()


class TestInAProcessOfItsOwn:
    """``python -m invcert`` with closed streams, under time and memory limits."""

    @pytest.mark.parametrize("doc, column", [
        (constant_patch_doc(30), 0),
        (zero_column_family_doc(24, 7), 7),
    ], ids=["30-axis-degree-0-patch", "24-column-family-with-a-zero-column"])
    def test_wide_degenerate_document_exits_two_at_once(self, doc, column):
        # A degenerate report lists no patterns, so none is enumerated: the
        # 2^29 or 2^23 patterns would not fit in the timeout, or in memory.
        proc = subprocess.run([sys.executable, "-m", "invcert", "--format", "structured"],
                              input=doc, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["pattern_results"] == []
        assert payload["degenerate_column"] == column

    def test_sixteen_column_family_in_bounded_memory(self, tmp_path):
        # Every one of the 32,768 patterns is decided, one chunk of patterns
        # at a time, so memory does not grow with patterns times generators;
        # a family-wide patterns x generators sign matrix peaked at 296 MB.
        # The peak is this child's own, read as it is reaped: RUSAGE_CHILDREN
        # would give the largest of every child this process has reaped.
        (tmp_path / "doc.json").write_text(
            family_doc(near_identity_columns(np.random.default_rng(1), 16)))
        with open(tmp_path / "doc.json") as stdin, open(tmp_path / "out.txt", "w") as stdout, \
                open(tmp_path / "err.txt", "w") as stderr:
            proc = subprocess.Popen([sys.executable, "-m", "invcert", "--format", "text"],
                                    stdin=stdin, stdout=stdout, stderr=stderr)
            watchdog = threading.Timer(120, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        # Reaped here, so Popen must not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = (tmp_path / "out.txt").read_text()
        assert proc.returncode == 0
        assert (tmp_path / "err.txt").read_text() == ""
        assert len(re.findall(r"^[+-](?: [+-])* +strict ", out, flags=re.M)) == 32768
        # ru_maxrss is in kB on Linux.
        assert usage.ru_maxrss / 1024 < 200

    @pytest.mark.parametrize("doc, code", [
        (family_doc([GeneratorSet(0, [[1.0, 0.0], [1.0, 0.1]]),
                     GeneratorSet(1, [[0.0, 1.0]])]), 0),
        (COLLAPSED_DOC, 1),
    ], ids=["certified", "not-certified"])
    def test_closed_stdout_keeps_the_verdict(self, doc, code):
        # The reader of stdout is gone before the report is written, as
        # under `invcert | head -1`: the exit code is still the verdict's.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "invcert"], input=doc.encode(),
                                  stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stderr == b""

    @pytest.mark.parametrize("doc, flags, code", [
        (MATRIX_DOC, ["--oracle", "10"], 0),
        (MATRIX_DOC, ["--per-patch"], 0),
        ('{"mode": "nope"}', [], 3),
        (MATRIX_DOC, ["--bogus"], 3),
        (MATRIX_DOC, ["--oracle", "0"], 3),
        (MATRIX_DOC, ["--delta", "nan"], 3),
    ], ids=["skipped-oracle", "skipped-per-patch", "bad-mode", "unknown-flag", "zero-trials",
            "nan-delta"])
    def test_closed_stderr_keeps_the_exit_code(self, doc, flags, code):
        # Every one of these runs writes one line to stderr, whose reader is
        # already gone: the exit code and the report on stdout stay as they are.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "invcert", *flags], input=doc.encode(),
                                  stdout=subprocess.PIPE, stderr=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert (b"verdict: STRICT-V-FAMILY" in proc.stdout) == (code == 0)

    def test_closed_stdin_exits_three(self):
        proc = subprocess.run(["sh", "-c", 'exec "$0" -m invcert <&-', sys.executable],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "invcert: cannot read input: standard input is closed\n"


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


README_GRID_DOC = re.findall(r"^```json\n(.*?)^```$",
                             (Path(__file__).resolve().parent.parent / "README.md").read_text(),
                             flags=re.M | re.S)[1]

IDENTITY_HEAD = """\
dimension: 2
provenance: single-patch
delta: 1e-12
threshold: 1e-07
generators per column: 1 1
min generator norm per column: 1 1
verdict: STRICT-V-FAMILY
pattern  status      margin       epsilon      certificate
+ +      strict      -            0.707107     (0.707107, 0.707107)
+ -      strict      -            0.707107     (0.707107, -0.707107)
"""

# The witness line of the folded patch ends in a signed-generator sum and a
# norm of round-off size, whose digits depend on the BLAS build; the test
# pins the rest of that line and requires both to stay below 1e-12.
FOLDED_WITNESS = re.compile(
    r"witness \(\+ \+\): weights 0\.46906 0\.053094 0 0\.477846; "
    r"signed-generator sum \((\S+), (\S+)\); norm (\S+)")

GOLDEN = {
    "identity": (IDENTITY_PATCH_DOC, [], 0, IDENTITY_HEAD),
    "collapsed": (COLLAPSED_DOC, [], 1, """\
dimension: 2
provenance: single-patch
delta: 1e-12
threshold: 1e-07
generators per column: 1 1
min generator norm per column: 1.41421 1.41421
verdict: NOT-CERTIFIED
pattern  status      margin       epsilon      certificate
+ +      strict      1.41421      1            (0.707107, 0.707107)
+ -      not-strict  0            -            -
witness (+ -): weights 0.5 0.5; signed-generator sum (0, 0); norm 0
"""),
    "marginal": (IDENTITY_PATCH_DOC, ["--threshold", "10"], 1, """\
dimension: 2
provenance: single-patch
delta: 1e-12
threshold: 10
generators per column: 1 1
min generator norm per column: 1 1
verdict: NOT-CERTIFIED
pattern  status      margin       epsilon      certificate
+ +      not-strict  1            -            -
+ -      not-strict  1            -            -
note (+ +): numerically marginal
witness (+ +): weights 1 0; signed-generator sum (1, 0); norm 1
note (+ -): numerically marginal
witness (+ -): weights 1 0; signed-generator sum (1, 0); norm 1
"""),
    "degenerate": (DEGENERATE_DOC, [], 2, """\
dimension: 2
provenance: matrix-family
delta: 1e-12
threshold: 1e-07
generators per column: 1 1
verdict: NOT-CERTIFIED
DEGENERATE column 1: generators not separated from the origin (delta 1e-12)
"""),
    "readme-grid-per-patch": (README_GRID_DOC, ["--per-patch"], 0,
                              IDENTITY_HEAD.replace("single-patch", "multi-patch") + """\
per-patch verdicts:
cell (0, 0): STRICT-V-FAMILY
cell (0, 1): STRICT-V-FAMILY
cell (1, 0): STRICT-V-FAMILY
cell (1, 1): STRICT-V-FAMILY
"""),
    "folded-oracle": (FOLDED_DOC, ["--oracle", "2000", "--seed", "0"], 1, """\
dimension: 2
provenance: single-patch
delta: 1e-12
threshold: 1e-07
generators per column: 2 2
min generator norm per column: 0.905539 0.905539
verdict: NOT-CERTIFIED
pattern  status      margin       epsilon      certificate
+ +      not-strict  0            -            -
+ -      strict      -            0.707107     (0.707107, -0.707107)
FOLDED WITNESS
oracle trials: 2000
oracle seed: 0
oracle collision: u (0.357384, 0.774395) v (0.336716, 0.753727) \
F(u) (0.108303, 0.525314) F(v) (0.108303, 0.525314)
oracle agreement: consistent (not certified, collision confirms non-injectivity)
"""),
    "identity-oracle": (IDENTITY_PATCH_DOC, ["--oracle", "2000", "--seed", "0"], 0,
                        IDENTITY_HEAD + """\
oracle trials: 2000
oracle seed: 0
oracle collision: none
oracle agreement: consistent (certified, no collision found)
"""),
}

# Both flags at once: the per-patch and oracle sections follow the report.
GOLDEN["readme-grid-per-patch-oracle"] = (
    README_GRID_DOC, ["--per-patch", "--oracle", "2000", "--seed", "1"], 0,
    GOLDEN["readme-grid-per-patch"][3] + """\
oracle trials: 2000
oracle seed: 1
oracle collision: none
oracle agreement: consistent (certified, no collision found)
""")


def _text_value(lines: list[str], prefix: str) -> str | None:
    found = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    assert len(found) <= 1
    return found[0] if found else None


class TestGoldenReports:
    """The exact text report, exit code and silent stderr for fixed inputs."""

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_text_report_is_pinned(self, name, tmp_path, capsys):
        doc, flags, want_code, want = GOLDEN[name]
        path = tmp_path / "doc.json"
        path.write_text(doc)
        code = main(["--input", str(path), *flags])
        captured = capsys.readouterr()
        assert code == want_code
        assert captured.err == ""
        lines = captured.out.splitlines()
        if name == "folded-oracle":
            k = want.splitlines().index("FOLDED WITNESS")
            match = FOLDED_WITNESS.fullmatch(lines[k])
            assert match, lines[k]
            assert all(abs(float(v)) < 1e-12 for v in match.groups())
            lines[k] = "FOLDED WITNESS"
        assert lines == want.splitlines()
        assert captured.out.endswith("\n") and not captured.out.endswith("\n\n")

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_structured_report_agrees_with_the_text(self, name, tmp_path, capsys):
        doc, flags, want_code, want = GOLDEN[name]
        path = tmp_path / "doc.json"
        path.write_text(doc)
        code = main(["--input", str(path), *flags, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == want_code
        assert captured.err == ""
        payload = json.loads(captured.out)
        lines = want.splitlines()
        assert payload["verdict"].upper() == _text_value(lines, "verdict: ")
        cells = [line for line in lines if line.startswith("cell ")]
        assert [f"cell {tuple(entry['cell'])}: {entry['report']['verdict'].upper()}"
                for entry in payload.get("per_patch", [])] == cells
        assert payload.get("oracle", {}).get("agreement") == \
            _text_value(lines, "oracle agreement: ")
