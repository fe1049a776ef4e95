"""The pattern records of a report, field by field, as the benchmark reads them.

``bench/worker.py`` keeps, per report, the verdict, the degenerate column
and one list per pattern read from the records' attributes: the signs,
the status, the LP margin and the certificate's ``a`` and ``epsilon``.
``bench/tracing.py`` counts the LPs from ``lp_margin`` and ``status``.
Those reads are pinned here, and must agree with ``report_to_dict``. The
records carry no checks of their own: a report's certificates are the
rows of one read-only stack that the certifier's judge built.
"""

import json

import numpy as np
import pytest

from invcert import GeneratorSet, certify_matrix_family
from invcert.certify import STATUS_NOT_STRICT, STATUS_STRICT
from invcert.cli import report_to_dict

from helpers import near_identity_columns


def benchmark_record(report) -> dict:
    """A report's record as the benchmark's worker builds it."""
    return {
        "verdict": report.verdict,
        "degenerate_column": report.degenerate_column,
        "patterns": [
            [list(r.pattern.signs), r.status, r.lp_margin,
             None if r.certificate is None else r.certificate.a.tolist(),
             None if r.certificate is None else r.certificate.epsilon]
            for r in report.pattern_results
        ],
    }


def gaussian_family(n: int, seed: int) -> list[GeneratorSet]:
    rng = np.random.default_rng(seed)
    return [GeneratorSet(j, rng.normal(size=(20, n))) for j in range(n)]


def degenerate_family() -> list[GeneratorSet]:
    return [GeneratorSet(0, [[1.0, 0.0, 0.0]]), GeneratorSet(1, [[0.0, 0.0, 0.0]]),
            GeneratorSet(2, [[0.0, 0.0, 1.0]])]


FAMILIES = {
    # Every pattern certified in closed form.
    "screened": near_identity_columns(np.random.default_rng(1), 4),
    # Some patterns certified by their LP.
    "lp-certified": near_identity_columns(np.random.default_rng(1), 6, noise=0.15),
    # Every pattern rejected by its LP.
    "rejected": gaussian_family(6, 7),
    "degenerate": degenerate_family(),
}


@pytest.fixture(scope="module", params=FAMILIES, ids=FAMILIES)
def report(request):
    return certify_matrix_family(FAMILIES[request.param])


def test_the_families_cover_each_kind_of_record():
    reports = {name: certify_matrix_family(columns) for name, columns in FAMILIES.items()}
    kinds = {name: {(r.status, r.lp_margin is None) for r in rep.pattern_results}
             for name, rep in reports.items()}
    assert kinds["screened"] == {(STATUS_STRICT, True)}
    assert (STATUS_STRICT, False) in kinds["lp-certified"]
    assert kinds["rejected"] == {(STATUS_NOT_STRICT, False)}
    assert kinds["degenerate"] == set() and reports["degenerate"].degenerate_column == 1


def test_each_field_has_the_type_the_benchmark_reads(report):
    for res in report.pattern_results:
        signs = res.pattern.signs
        assert type(signs) is tuple and all(type(s) is int for s in signs)
        assert len(signs) == report.dimension and signs[0] == 1
        assert res.status in (STATUS_STRICT, STATUS_NOT_STRICT)
        assert res.lp_margin is None or type(res.lp_margin) is float
        cert = res.certificate
        assert (cert is not None) == (res.status == STATUS_STRICT)
        if cert is not None:
            assert cert.a.dtype == float and cert.a.shape == (report.dimension,)
            assert not cert.a.flags.writeable
            assert type(cert.epsilon) is float


def test_the_record_is_json_and_agrees_with_the_payload(report):
    record = benchmark_record(report)
    payload = report_to_dict(report)
    assert json.loads(json.dumps(record)) == record
    assert (record["verdict"], record["degenerate_column"]) == \
        (payload["verdict"], payload["degenerate_column"])
    entries = [[e["pattern"], e["status"], e["lp_margin"],
                None if e["certificate"] is None else e["certificate"]["a"],
                None if e["certificate"] is None else e["certificate"]["epsilon"]]
               for e in payload["pattern_results"]]
    assert json.dumps(record["patterns"]) == json.dumps(entries)


def test_certificates_are_unit_rows_of_one_read_only_stack(report):
    # The judge that verifies the certificates is their only source; no
    # later check stands behind it.
    certificates = [r.certificate for r in report.pattern_results if r.certificate is not None]
    if not certificates:
        return
    stack = certificates[0].a.base
    assert stack.shape == (len(certificates), report.dimension) and not stack.flags.writeable
    for row, cert in zip(stack, certificates, strict=True):
        assert cert.a.base is stack and cert.a.tobytes() == row.tobytes()
        assert abs(np.linalg.norm(cert.a) - 1.0) <= 1e-12
        assert 0.0 < cert.epsilon < np.inf
