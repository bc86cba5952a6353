"""The parity digests of tests/parity.py depend on nothing but the code."""
import numpy as np

import parity
from surftrace import gallery


def test_trace_digest_is_the_same_on_two_calls():
    first = parity.trace_digest()
    assert first == parity.trace_digest()
    assert first[1] == 22 * parity.PASSES


def test_trace_set_costs_no_more_solver_work():
    # deterministic cost counts of the seeded trace set, as ceilings: the
    # shared start took them from 8,730 RHS calls and 1,360 accepted steps
    # to 7,980 and 1,254, and the isogonal step-end event's reading of the
    # last stage its scalar jet calls from 8,245 to 8,071; a change that
    # adds solver or chart work fails here
    _, _, nfev, steps, jets = parity.trace_digest()
    assert nfev <= 7980 and steps <= 1254 and jets <= 8071


def test_csv_digest_repeats_and_every_file_reads_back_bit_for_bit():
    runs = [[], []]
    for curves in runs:
        parity.trace_digest(curves=curves)
    first = parity.csv_digest(runs[0])
    assert first == parity.csv_digest(runs[1])
    assert first[1] == 22 * parity.PASSES and first[2] == 0


def test_umbilic_runs_cost_no_more_solver_work():
    # deterministic, and the RHS and scalar jet counts ceilings: each run
    # ends at the umbilic gap's solver event in whole steps, or completes;
    # the event reads the margin off each step's last stage, which took
    # the jet calls from 10,244 to 8,949, and an end is named from the state
    # the event read there, which took them to 8,939
    first = parity.umbilic_digest()
    assert first == parity.umbilic_digest()
    _, n, nfev, jets = first
    assert n == 30 and nfev <= 8322 and jets <= 8939


def test_charts_digest_is_the_same_on_two_calls():
    first = parity.charts_digest()
    assert first == parity.charts_digest()
    assert first[1] == len(gallery.CATALOGUE)


def test_drift_report_against_its_own_outputs_is_all_bitwise(tmp_path):
    path = tmp_path / "outputs.npz"
    parity.save(str(path), parity.SEED, 1)
    lines = parity.drift_report(str(path), parity.SEED, 1).splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert {row[0] for row in rows} == {"isogonal", "pseudo_geodesic",
                                        "geodesic", "charts"}
    for row in rows:
        if row[1] == "text":   # a count of changed verdicts
            assert row[-1] == "verdicts", row
            row = row[:-1]
        same, n = row[-2].split("/")
        assert same == n and row[-1] == "0", row
    assert lines[-1] == "verify: 64 of 64 values bitwise"


def test_verdicts_see_words_and_exits_not_numbers():
    text = ("completed\nplanar:             no (max|tau|=0.25)\n"
            "helix:              yes (m=0.5, n=0.8, psi=1.01)\n")
    same = parity._verdicts(text)
    assert parity._verdicts(text.replace("m=0.5", "m=0.50001")) == same
    assert parity._verdicts(text.replace("yes", "no")) != same
    assert parity._verdicts(text.replace("completed", "hit_boundary")) != same
    refusal = "TooFewSamplesError: need at least 5 samples, got 3"
    assert (parity._verdicts(refusal)
            == parity._verdicts(refusal.replace("got 3", "got 4")))


def test_theta_flips_cover_the_torsion_stencil():
    # a step of pi in theta, as a checkout that lifts it modulo 2 pi saves
    kappa = np.full(12, 0.5)
    kappa[10] = 1e-7
    theta = np.r_[np.full(4, np.pi), np.zeros(8)]
    assert parity._flips(kappa, theta).tolist() == [
        False, True, True, True, True, True, True, False, True, True, True,
        True]


def test_drift_report_names_fields_saved_on_one_side(tmp_path, monkeypatch):
    # a field only the file has is removed, one only the checkout has is
    # added; neither reads as an infinite change
    monkeypatch.setattr(parity, "verify_checks", dict)
    path = tmp_path / "outputs.npz"
    parity.save(str(path), parity.SEED, 1)
    saved = dict(np.load(path))
    for key in [k for k in saved if k.endswith(" trace.shape.data.kappa1")]:
        saved[key.replace("kappa1", "gone")] = saved.pop(key)
    np.savez(path, **saved)
    rows = {tuple(line.split()[:2]): line.split()[2:]
            for line in parity.drift_report(str(path), parity.SEED,
                                            1).splitlines()[1:-1]}
    for mode in ("isogonal", "pseudo_geodesic", "geodesic"):
        n = rows[mode, "trace.shape.data.kappa2"][0].split("/")[1]
        assert rows[mode, "trace.shape.data.kappa2"] == [f"{n}/{n}", "0"]
        assert rows[mode, "trace.shape.data.kappa1"] == [f"0/{n}", "added"]
        assert rows[mode, "trace.shape.data.gone"] == [f"0/{n}", "removed"]
