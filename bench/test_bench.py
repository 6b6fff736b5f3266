"""Tests of the benchmark itself: every oracle accepts a good result and
rejects a perturbed one, and decks are deterministic in their seed.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import worker  # noqa: E402
from oracles import FAIL, OK, WRONG, check  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WEBER_RTOL, WORKLOADS, EXECUTORS, Job, make_deck,  # noqa: E402
                       pcf_known)

KM = worker.load_library()


def first(deck, op, pred=lambda j: True):
    return next(j for j in deck if j.op == op and pred(j))


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli"))


@pytest.fixture(scope="module")
def decks(cli_dir):
    return {w: make_deck(w, 7, KM, cli_dir) for w in WORKLOADS}


def run(job):
    return EXECUTORS[job.op](KM, *job.args)


def bump(x):
    return x + 1e-3 * (1 + abs(x))


# -- determinism ----------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_deck_is_deterministic_in_seed(workload, tmp_path):
    a = [j.describe() for j in make_deck(workload, 3, KM, str(tmp_path))]
    b = [j.describe() for j in make_deck(workload, 3, KM, str(tmp_path))]
    c = [j.describe() for j in make_deck(workload, 4, KM, str(tmp_path))]
    assert a == b
    assert a != c


# -- algebra --------------------------------------------------------------

def perturbed_element(x):
    word = max(x.terms, key=len)
    terms = dict(x.terms)
    terms[word] = terms[word] + 1
    return KM.algebra.AlgebraElement(x.gens, terms)


@pytest.mark.parametrize("op", ["normal_order", "commutator", "apply_isomorphism",
                                "Involution.apply", "rho_iso"])
def test_algebra_oracles(decks, op):
    job = first(decks["algebra"], op, lambda j: j.size >= 3 and run(j).terms)
    good = run(job)
    assert check(KM, job, good) == OK
    assert check(KM, job, perturbed_element(good)) == WRONG


def test_normal_order_oracle_rejects_unordered_word(decks):
    job = first(decks["algebra"], "normal_order", lambda j: j.size >= 4)
    good = run(job)
    word = max(good.terms, key=len)
    terms = dict(good.terms)
    coeff = terms.pop(word)
    terms[tuple(reversed(word))] = coeff
    if tuple(reversed(word)) != word:
        assert check(KM, job, KM.algebra.AlgebraElement(good.gens, terms)) == WRONG


def test_format_element_oracle(decks):
    job = first(decks["algebra"], "format_element", lambda j: j.size >= 3)
    good = run(job)
    assert check(KM, job, good) == OK
    assert check(KM, job, good + " + 1") == WRONG


# -- specfun --------------------------------------------------------------

def test_weber_oracle(decks):
    job = first(decks["specfun"], "weber_D", lambda j: j.known is None)
    good = run(job)
    assert check(KM, job, good) == OK
    bad = dataclasses.replace(good, value=bump(good.value))
    assert check(KM, job, bad) == WRONG
    assert check(KM, job, dataclasses.replace(good, value=complex("nan"))) == FAIL


def test_weber_known_class_is_narrow(decks):
    # the documented failure (-0.5, 12) is in the class; a benign
    # non-integer order is not
    assert pcf_known((-0.5,), (12.0,), WEBER_RTOL) == "pcf_cancellation"
    assert pcf_known((0.5,), (1.0,), WEBER_RTOL) is None
    # a wrong result outside the class makes the run incorrect
    job = first(decks["specfun"], "weber_D",
                lambda j: j.known is None and j.args[0] != int(j.args[0]))
    good = run(job)
    bad = dataclasses.replace(good, value=bump(good.value))
    _, counted, calib, _ = worker.run_deck([job], lambda j: bad,
                                           lambda j, r: check(KM, j, r), None, count=1)
    assert worker.summarize(counted, calib)["unexpected"] == 1


def test_ladder_oracle(decks):
    job = first(decks["specfun"], "ladder_check", lambda j: j.known is None)
    up, down = run(job)
    assert check(KM, job, (up, down)) == OK
    assert check(KM, job, (up + 1e3, down)) == WRONG


@pytest.mark.parametrize("op", ["gamma_S", "gamma_S_inverse", "fourier_project"])
def test_truncfn_oracles(decks, op):
    job = first(decks["specfun"], op)
    good = run(job)
    assert check(KM, job, good) == OK
    coeffs = good.coeffs.copy()
    coeffs[1] = bump(coeffs[1])
    assert check(KM, job, KM.truncfn.TruncFn(coeffs, good.exact)) == WRONG


def test_verify_implementation_oracle(decks):
    job = first(decks["specfun"], "verify_implementation")
    good = run(job)
    assert check(KM, job, good) == OK
    assert check(KM, job, good + 1.0) == WRONG


@pytest.mark.parametrize("kind", ["SigmaOne", "SigmaThree", "SigmaPlus", "SigmaMinus"])
def test_orbit_oracle(decks, kind):
    job = first(decks["specfun"], "classify_orbit", lambda j: j.meta["kind"] == kind)
    good = run(job)
    assert check(KM, job, good) == OK
    assert check(KM, job, dataclasses.replace(good, scale=bump(good.scale))) == WRONG


# -- reps -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["fock", "antifock", "schroedinger"])
def test_rep_oracle(decks, kind):
    job = first(decks["reps"], "build_verify",
                lambda j: j.args[0] == kind and j.known is None and j.size < 60)
    rep, report = run(job)
    assert check(KM, job, (rep, report)) == OK
    a = rep.a_mat.copy()
    a[0, 1] = bump(a[0, 1])
    assert check(KM, job, (dataclasses.replace(rep, a_mat=a), report)) == WRONG
    bad = dict(report, ccr_max_residual=1.0)
    assert check(KM, job, (rep, bad)) == WRONG
    g = rep.gram_diag.copy()
    g[-1] = np.inf
    assert check(KM, job, (dataclasses.replace(rep, gram_diag=g), report)) == FAIL


def test_reduce_oracle(decks):
    job = first(decks["reps"], "reduce_to_canonical")
    good = run(job)
    assert check(KM, job, good) == OK
    s = np.array(good.s_matrix, dtype=complex)
    s[1, 0] = bump(s[1, 0])
    assert check(KM, job, dataclasses.replace(good, s_matrix=s)) == WRONG


def test_multimode_oracle(decks):
    job = first(decks["reps"], "multimode", lambda j: j.size == (3, 8))
    rep, support, vacuum = run(job)
    assert check(KM, job, (rep, support, vacuum)) == OK
    assert check(KM, job, (rep, set(support) | {99}, vacuum)) == WRONG
    a = [m.copy() for m in rep.a_mats]
    a[0][0, 1] = bump(a[0][0, 1])
    assert check(KM, job, (dataclasses.replace(rep, a_mats=a), support, vacuum)) == WRONG


# -- cli ------------------------------------------------------------------

@pytest.mark.parametrize("verb", ["normal-order", "classify-orbit", "verify-rep",
                                  "vacuum-descent", "spectral-check"])
def test_cli_oracle(decks, verb, cli_dir, monkeypatch):
    monkeypatch.chdir(cli_dir)   # README examples name @state.json relative to it
    job = first(decks["cli"], "cli", lambda j: j.size == verb and j.known is None)
    expected = oracles.cli_expected(KM, job.args[0])
    good = (0, KM.cli.emit_json(expected) + "\n", "")
    assert check(KM, job, good) == OK
    assert check(KM, job, (1, good[1], "")) == FAIL
    assert check(KM, job, (0, good[1], "Traceback (most recent call last):")) == FAIL
    payload = json.loads(good[1])
    key = sorted(payload)[0]
    payload[key] = "perturbed"
    assert check(KM, job, (0, json.dumps(payload), "")) == WRONG


def test_tracer_measures_reps_made_by_cli_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = (["verify-rep", "--levels", "200"],
             ["build-rep", "--kind=schroedinger", "--theta=-0.5", "--gamma=2", "--levels=200"],
             ["multimode-build", "--eta=+1,-1,+1,-1", "--degree-cap=8"])
    tracer = Tracer()
    tracer.install(KM)
    try:
        for i, argv in enumerate(calls):
            tracer.job = i
            run(Job("cli", argv[0], (argv,), "cli"))
    finally:
        tracer.uninstall()
    assert tracer.raised == {0}        # the Fock build raises OverflowError
    assert tracer.nonfinite == {1}     # the Schroedinger Gram holds Inf
    assert tracer.sizes["multimode.dim"] == 495
    assert tracer.sizes["multimode.dense_bytes"] == 8 * 495 * 495 * 16
    assert tracer.sizes["reps.dim"] == 201


def test_cli_normal_order_checked_by_algebra_oracle(monkeypatch):
    job = Job("cli", "normal-order", (["normal-order", "d z"],), "cli")
    assert check(KM, job, (0, '{"result":"z d + 1"}', "")) == OK
    # even when the in-process library agrees with a wrong payload, the
    # algebra oracle rejects it
    monkeypatch.setattr(oracles, "cli_expected", lambda km, argv: {"result": "z d + 2"})
    assert check(KM, job, (0, '{"result":"z d + 2"}', "")) == WRONG
