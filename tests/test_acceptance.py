"""End-to-end acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py``; every criterion prints a
``criterion NN ...: PASS/FAIL`` line directly to the terminal.  The two
airport-network criteria need the USAir97 Pajek file, which is not bundled;
place it at ``data/usair97.net`` (repo root) or point the ARCWALK_USAIR97
environment variable at it, otherwise those checks are reported as SKIP.
"""

import os

import numpy as np
import pytest
from test_operators import verify_shift_equivalence

import arcwalk as aw

USAIR_ENV = "ARCWALK_USAIR97"

Q_AIRPORT = (0.0002351834, 0.0002354634, 0.0002355834)
AIRPORT_SIZES = [(260, 72), (147, 151, 34), (109, 111, 51, 44, 17)]

ZACHARY_GROUP_1 = {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 17, 18, 20, 22}
ZACHARY_GROUP_34 = {9, 10, 15, 16, 19, 21, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34}


def usair_graph():
    path = os.environ.get(USAIR_ENV) or os.path.join(
        os.path.dirname(__file__), "..", "data", "usair97.net"
    )
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return aw.load_pajek(handle.read())


def report(capsys, number, name, ok, note=""):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number:02d} {name}: {status}{note}")
    assert ok, f"criterion {number} ({name}) failed"


def skip_line(capsys, number, name, reason):
    with capsys.disabled():
        print(f"criterion {number:02d} {name}: SKIP ({reason})")
    pytest.skip(reason)


def grover_report(graph):
    op = aw.build_walk_operator(graph, aw.CoinKind.GROVER)
    dec = aw.walk_decompose(op, cap=5000)
    return aw.degeneracy_report(dec, graph)


def test_criterion_01_grover_degeneracy_counts(capsys, three_community, karate):
    ok = True
    note_parts = []
    for graph, expected in [(three_community, (20, 18)), (karate, (46, 44))]:
        r = grover_report(graph)
        observed = (r.plus_one, r.minus_one)
        note_parts.append(f"{observed}")
        ok = ok and observed == expected
    airport = usair_graph()
    if airport is None:
        note_parts.append("airport part skipped: usair97.net not supplied")
    else:
        r = grover_report(airport)
        ok = ok and (r.plus_one, r.minus_one) == (1796, 1794)
        note_parts.append(f"airport {(r.plus_one, r.minus_one)}")
    report(capsys, 1, "Grover +1/-1 multiplicities", ok, " [" + "; ".join(note_parts) + "]")


@pytest.mark.parametrize(
    "name",
    ["three_community", "karate", "square_triangle", "cycle(4)", "cycle(5)", "path(4)", "complete(5)"],
)
def test_criterion_02_betti_consistency(capsys, name):
    r = grover_report(aw.builtin(name))
    report(
        capsys,
        2,
        f"Betti prediction on {name}",
        r.matches_prediction,
        f" [({r.plus_one},{r.minus_one}) vs ({r.predicted_plus_one},{r.predicted_minus_one})]",
    )


def test_criterion_03_fourier_non_degeneracy(capsys, three_fourier_dec, karate_fourier_dec):
    ok = all(
        max(len(g) for g in dec.groups) == 1
        for dec in (three_fourier_dec, karate_fourier_dec)
    )
    report(capsys, 3, "Fourier spectrum is simple", ok)


def test_criterion_04_three_community_partition(capsys, three_fourier_avg, three_community):
    _, norm = three_fourier_avg
    part = aw.detect(norm, three_community, 1.0 / 78)
    ok = (
        part.hubs == (1, 13, 21)
        and part.members(0) == tuple(range(1, 8))
        and part.members(1) == tuple(range(8, 15))
        and part.members(2) == tuple(range(15, 22))
    )
    report(capsys, 4, "three-community partition at q=1/78", ok, f" [hubs {part.hubs}]")


def test_criterion_05_karate_partition(capsys, karate_fourier_avg, karate):
    _, norm = karate_fourier_avg
    part = aw.detect(norm, karate, 1.0 / 156)
    ok = set(part.hubs) == {1, 34} and part.community_count == 2
    mismatched = set()
    if ok:
        side_1 = set(part.members(part.assignment[1]))
        side_34 = set(part.members(part.assignment[34]))
        mismatched = (side_1 ^ ZACHARY_GROUP_1) | (side_34 ^ ZACHARY_GROUP_34)
        ok = mismatched <= {3, 20}
        flagged = {m.node for m in aw.margin_report(norm, part) if m.marginal}
        ok = ok and mismatched <= flagged
    report(
        capsys,
        5,
        "karate two communities, deviations flagged",
        ok,
        f" [moved nodes: {sorted(mismatched) or 'none'}]",
    )


def test_criterion_06_karate_marginal_ordering(capsys, karate_fourier_avg):
    _, norm = karate_fourier_avg
    q = 1.0 / 156
    p_1_20, p_34_20 = norm[0, 19], norm[33, 19]
    ok = (
        p_1_20 > p_34_20 > q
        and abs(p_1_20 - 0.007062) <= 0.15 * 0.007062
        and abs(p_34_20 - 0.006451) <= 0.15 * 0.006451
    )
    report(
        capsys,
        6,
        "karate node 20 margins",
        ok,
        f" [P(1->20)={p_1_20:.6f}, P(34->20)={p_34_20:.6f}, q={q:.6f}]",
    )


def test_criterion_07_airport_hierarchy(capsys):
    airport = usair_graph()
    if airport is None:
        skip_line(capsys, 7, "airport threshold sweep", "usair97.net not supplied")
    op = aw.build_walk_operator(airport, aw.CoinKind.FOURIER)
    dec = aw.walk_decompose(op, cap=5000)
    _, norm = aw.infinite_time_average_matrix(dec, airport)
    entries = aw.sweep(norm, airport, list(Q_AIRPORT))
    ok = True
    notes = []
    for (q, count, sizes), expected in zip(entries, AIRPORT_SIZES):
        big = sorted(sizes, reverse=True)[: len(expected)]
        match = count == len(expected) and all(
            abs(s - e) <= 3 for s, e in zip(sorted(big), sorted(expected))
        )
        ok = ok and match
        notes.append(f"q={q:.10f}: {count} communities {sizes}")
    report(capsys, 7, "airport threshold sweep", ok, " [" + "; ".join(notes) + "]")


def test_criterion_08_cesaro_oracle_t20000(capsys, three_fourier_avg, three_community):
    p_inf, _ = three_fourier_avg
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    p_fin, _ = aw.finite_time_average_matrix(op, steps=20000)
    dev = float(np.abs(p_inf - p_fin).max())
    report(capsys, 8, "infinite vs T=20000 average", dev < 2e-3, f" [max dev {dev:.2e}]")


def test_criterion_09_finite_t100_close(capsys, three_fourier_avg, three_community):
    _, norm_inf = three_fourier_avg
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    _, norm_fin = aw.finite_time_average_matrix(op, steps=100)
    ratio = float(np.abs(norm_inf - norm_fin).max() / norm_inf.max())
    report(capsys, 9, "T=100 within 10% of infinite", ratio < 0.10, f" [{100 * ratio:.1f}%]")


def test_criterion_10_grover_self_localization(capsys, three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.GROVER)
    _, norm = aw.finite_time_average_matrix(op, steps=100)
    diagonal_max = bool(np.all(np.argmax(norm, axis=1) == np.arange(21)))
    report(capsys, 10, "Grover T=100 rows peak at start node", diagonal_max)


def test_criterion_11_classical_baseline(capsys, three_fourier_avg, three_community):
    ok = True
    for name in ["three_community", "karate", "square_triangle", "cycle(5)", "path(4)", "complete(5)"]:
        g = aw.builtin(name)
        flat = aw.stationary(g) / g.degrees
        ok = ok and np.abs(flat - 1.0 / g.arc_count).max() < 1e-12
    _, norm = three_fourier_avg
    q = 1.0 / 78
    intra = norm[np.ix_(range(0, 7), range(0, 7))]
    off = intra[~np.eye(7, dtype=bool)]
    signal = float(np.abs(off - q).max() / q)
    ok = ok and signal > 0.20
    report(
        capsys,
        11,
        "flat classical baseline vs quantum signal",
        ok,
        f" [max intra-community deviation {100 * signal:.0f}% of 1/D]",
    )


def test_criterion_12_conservation(capsys, three_community, three_fourier_avg):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    psi = np.zeros(three_community.arc_count, dtype=complex)
    psi[0] = 1.0
    for _ in range(1000):
        psi = op.apply(psi)
    drift = abs(np.linalg.norm(psi) - 1.0)
    p, norm = three_fourier_avg
    row_sums = float(np.abs(p.sum(axis=1) - 1.0).max())
    asym = float(np.abs(norm - norm.T).max())
    ok = drift < 1e-10 and row_sums < 1e-10 and asym < 1e-10
    report(
        capsys,
        12,
        "unitarity, row sums, symmetry",
        ok,
        f" [drift {drift:.1e}, row-sum {row_sums:.1e}, asym {asym:.1e}]",
    )


def test_criterion_13_appendix_validators(capsys, three_community):
    ok = all(verify_shift_equivalence(n) for n in (3, 4, 10))
    triangle = aw.loop_eigenvector(three_community, [1, 2, 3], eigenvalue=1)
    ok = ok and triangle is not None and triangle[1] == 1
    square = aw.builtin("cycle(4)")
    plus = aw.loop_eigenvector(square, [1, 2, 3, 4], eigenvalue=1)
    minus = aw.loop_eigenvector(square, [1, 2, 3, 4], eigenvalue=-1)
    ok = ok and plus is not None and minus is not None
    report(capsys, 13, "shift equivalence and loop eigenvectors", ok)
