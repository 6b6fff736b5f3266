"""Command-line front end.

Every command is stateless: it parses its inputs, dispatches to the
library, and prints one JSON document on stdout.  Errors are printed as
JSON on stderr with a machine-readable ``code`` field; exit status is 0
on success, 1 on domain errors (``NonFinite`` for NaN, Inf or overflow)
and on unexpected failures (``InternalError``, naming the exception type),
2 on parse errors: ``_number`` reads every number (--theta, --gamma and config values
too) and ``read_doc`` every document, so NaN, Inf and overflow are parse errors anywhere.
A stdout closed by its reader ends the call silently with exit 1.  Output is
written by ``jsondoc.emit_json``, as the library's ``to_json`` is.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import multimode, pcf, reps, sl2, truncfn
from .algebra import (Involution, apply_isomorphism, commutator,
                      format_element, normal_order)
from .dsl import parse_expr, to_element
from .exceptions import DomainError, KreinCcrError, NonFinite, ParseError
from .jsondoc import emit_json

CONFIG_KEYS = ("degree_cap", "tolerance", "lambda_window", "x_window")
DEFAULTS = {"degree_cap": 16, "tolerance": 1e-10,
            "lambda_window": pcf.LAMBDA_WINDOW, "x_window": pcf.X_WINDOW}


def _scalar_or_pair(z):
    """Real numbers as plain floats, properly complex ones as complex ([re, im])."""
    z = complex(z)
    return z if z.imag else z.real


# -- input parsing helpers ---------------------------------------------

def _number(text, real=False):
    """p/q, a decimal (-0 reads +0.0) or a complex ('1+2j', '3i'), real if ``real``; NaN,
    Inf, overflow and a complex for a real are ParseErrors.  Decimals skip Fraction's slow 10^N."""
    text = text.strip()
    try:
        z = float(Fraction(text)) if "/" in text else (float(text) or 0.0)
    except (ValueError, ZeroDivisionError, OverflowError):
        try:
            z = complex(text.replace("i", "j"))
        except ValueError:
            raise ParseError(f"not a number: {text!r}", offset=0,
                             expected=("number",)) from None
    if not cmath.isfinite(z) or (real and z.imag):
        what = "real number" if real else "number"
        raise ParseError(f"not a finite {what}: {text!r}", offset=0, expected=(what,))
    return z.real if real else z

def _number_list(text):
    return [_number(p) for p in text.split(",")]


def _matrix2(text):
    vals = _number_list(text)
    if len(vals) != 4:
        raise ParseError("expected 4 comma-separated entries", offset=0,
                         expected=("matrix",))
    return [[vals[0], vals[1]], [vals[2], vals[3]]]


def _truncfn_arg(args, cap):
    if args.coeffs_json is not None:
        return truncfn.TruncFn.from_json(_maybe_file(args.coeffs_json))
    coeffs = _number_list(args.coeffs)
    return truncfn.TruncFn.from_coeffs(coeffs, degree_cap=cap)


def _read_text(path):
    """The text of a file (undecodable bytes replaced); an unreadable file is a ParseError."""
    try:
        with open(path, errors="replace") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path!r}: {e.strerror}", offset=0,
                         expected=("file",)) from None


def _maybe_file(text):
    return _read_text(text[1:]) if text.startswith("@") else text


def _eta_arg(text):
    try:
        return multimode.EtaSignature(tuple(int(p) for p in text.split(",")))
    except ValueError as e:
        raise ParseError(f"--eta: {e}", offset=0, expected=("+1", "-1")) from None


def _state_arg(text, cap):
    text = _maybe_file(text)
    state = multimode.MultiIndexState.from_json(text)
    if state.cap != cap:
        try:
            state = multimode.MultiIndexState(state.terms, cap)
        except ValueError as e:
            raise DomainError(f"state does not fit --degree-cap: {e}",
                              state_cap=state.cap, degree_cap=cap) from None
    return state


def _degree_cap(args, cfg):
    """--degree-cap, else the configured one; a negative cap is a DomainError."""
    cap = args.degree_cap if args.degree_cap is not None else int(cfg["degree_cap"])
    if cap < 0:
        raise DomainError(f"degree cap {cap} is negative", degree_cap=cap)
    return cap


def load_config(path):
    """key=value lines; '#' starts a comment.  Bad input is a ParseError."""
    out = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key=value",
                             offset=0, expected=("key=value",))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParseError(f"config line {lineno}: unknown key {key!r}",
                             offset=0, expected=CONFIG_KEYS)
        try:
            out[key] = _number(value, real=True)
        except ParseError as e:
            raise ParseError(f"config line {lineno}: {key} is {e}", 0, e.expected) from None
        if key == "degree_cap" and not out[key].is_integer():
            raise ParseError(f"config line {lineno}: degree_cap is not a whole number",
                             offset=0, expected=("integer",))
    return out


# -- command handlers --------------------------------------------------

def cmd_normal_order(args, cfg):
    x = to_element(parse_expr(args.expr))
    return {"result": format_element(normal_order(x))}


def cmd_commutator(args, cfg):
    x = to_element(parse_expr(args.x))
    y = to_element(parse_expr(args.y))
    return {"result": format_element(commutator(x, y))}


def cmd_involve(args, cfg):
    k = Involution(_matrix2(args.c_matrix), tol=cfg["tolerance"])
    x = to_element(parse_expr(args.expr))
    return {"result": format_element(k.apply(x))}


def cmd_isomap(args, cfg):
    v = _matrix2(args.v)
    x = to_element(parse_expr(args.expr))
    return {"result": format_element(apply_isomorphism(v, x, tol=cfg["tolerance"]))}


def cmd_classify_orbit(args, cfg):
    n = sl2.SlVector(_number(args.n3), _number(args.nminus), _number(args.nplus))
    res = sl2.classify_orbit(n, tol=cfg["tolerance"])
    return {
        "type": res.kind.value,
        "q": _scalar_or_pair(n.q()),
        "witness": {"a": _scalar_or_pair(res.a), "b": _scalar_or_pair(res.b),
                    "scale": _scalar_or_pair(res.scale)},
    }


def cmd_gamma_s(args, cfg):
    cap = _degree_cap(args, cfg)
    f = _truncfn_arg(args, cap)
    alpha = _number(args.alpha)
    beta = _number(args.beta)
    g = (truncfn.gamma_S_inverse(alpha, beta, f) if args.inverse
         else truncfn.gamma_S(alpha, beta, f))
    return {**g.to_doc(),
            "implementation_residual": truncfn.verify_implementation(alpha, beta, f)}


def cmd_project(args, cfg):
    cap = _degree_cap(args, cfg)
    f = _truncfn_arg(args, cap)
    return truncfn.fourier_project(truncfn.rotation_family, f, args.k).to_doc()


def cmd_pcf_eval(args, cfg):
    lam = _number(args.lam, real=True)
    x = _number(args.x)
    if abs(lam) > cfg["lambda_window"] or abs(x) > cfg["x_window"]:
        raise DomainError("outside the configured evaluation window")
    v = pcf.weber_D(lam, x)
    return {
        "lambda": lam,
        "x": _scalar_or_pair(v.x),
        "value": _scalar_or_pair(v.value),
        "derivative": _scalar_or_pair(v.derivative),
        "second_derivative": _scalar_or_pair(v.second),
        "est_error": v.est_error,
        "ode_residual": v.ode_residual,
    }


def _build_rep(args):
    theta, gamma = _number(args.theta, real=True), _number(args.gamma, real=True)
    if args.kind == "schroedinger":
        return reps.build_schroedinger_theta(theta=theta, gamma=gamma, levels=args.levels,
                                             sign=args.sign, min_level=args.min_level)
    # the Bargmann kinds are the theta = 0, gamma = 1 ladders from level 0
    for flag, value, fixed in (("--theta", theta, 0), ("--gamma", gamma, 1),
                               ("--min-level", args.min_level, 0)):
        if value != fixed:
            raise DomainError(f"{flag} applies only to --kind schroedinger", flag=flag)
    build = reps.build_fock_bargmann if args.kind == "fock" else reps.build_antifock
    return build(args.levels)


def cmd_build_rep(args, cfg):
    return _build_rep(args).to_doc()


def cmd_verify_rep(args, cfg):
    if args.rep is not None:
        rep = reps.BasisRep.from_json(_maybe_file(args.rep))
    else:
        rep = _build_rep(args)
    return reps.verify_rep(rep)


def cmd_reduce_canonical(args, cfg):
    v = _matrix2(args.v)
    form = reps.reduce_to_canonical(v, mu=_number(args.mu), tol=cfg["tolerance"])
    return {
        "kind": form.kind,
        "sign": form.sign,
        "theta": form.theta,
        "gamma": form.gamma,
        "s_matrix": [[_scalar_or_pair(form.s_matrix[i][j]) for j in range(2)]
                     for i in range(2)],
    }


def cmd_multimode_build(args, cfg):
    cap = _degree_cap(args, cfg)
    eta = _eta_arg(args.eta)
    rep = multimode.build_multimode_rep(eta, cap)
    signs = [int(s) for s in np.sign(rep.gram_diag)]
    return {
        "modes": rep.modes,
        "eta": list(eta.values),
        "degree_cap": cap,
        "dimension": rep.size,
        "gauge_spectrum": sorted({int(x.real) for x in rep.gauge_diag}),
        "gram_signature": {"plus": signs.count(1), "minus": signs.count(-1)},
    }


def cmd_spectral_check(args, cfg):
    cap = _degree_cap(args, cfg)
    eta = _eta_arg(args.eta)
    rep = multimode.build_multimode_rep(eta, cap)
    f = _state_arg(args.f, cap)
    g = _state_arg(args.g, cap)
    support = multimode.spectral_condition_check(rep, f, g, tol=cfg["tolerance"])
    return {"support": sorted(support),
            "nonnegative": all(k >= 0 for k in support)}


def cmd_vacuum_descent(args, cfg):
    cap = _degree_cap(args, cfg)
    eta = _eta_arg(args.eta)
    rep = multimode.build_multimode_rep(eta, cap)
    f = _state_arg(args.f, cap)
    psi0 = multimode.vacuum_descent(rep, f)
    return {"vacuum": psi0.to_doc(),
            "on_constant_ray": set(psi0.terms) == {()}}


# -- argument wiring ---------------------------------------------------

_REQUIRED = {"required": True}
_CAP = ("--degree-cap", {"type": int})
_V = ("--v", {"required": True, "help": "4 comma-separated entries of V"})
_REP_ARGS = (("--kind", {"choices": ("fock", "antifock", "schroedinger"), "default": "fock"}),
             ("--levels", {"type": int, "default": 8}),
             ("--theta", {"default": "0"}),
             ("--gamma", {"default": "1"}),
             ("--sign", {"type": int, "choices": (1, -1), "default": 1}),
             ("--min-level", {"type": int, "default": 0}))

# (verb, help, handler, arguments as (name, add_argument keywords))
VERBS = (
    ("normal-order", "normal-order an expression", cmd_normal_order, (("expr", {}),)),
    ("commutator", "commutator of two expressions", cmd_commutator, (("x", {}), ("y", {}))),
    ("involve", "apply an antilinear involution", cmd_involve,
     (("expr", {}), ("--c-matrix", {"required": True,
                                    "help": "4 comma-separated entries of C (row major)"}))),
    ("isomap", "map a Heisenberg expression through (a*, a)^T = V (z, d)^T", cmd_isomap,
     (("expr", {}), _V)),
    ("classify-orbit", "adjoint orbit of an sl2 vector", cmd_classify_orbit,
     (("--n3", _REQUIRED), ("--nminus", _REQUIRED), ("--nplus", _REQUIRED))),
    ("gamma-s", "apply the implementer of S(alpha, beta)", cmd_gamma_s,
     (("--alpha", _REQUIRED), ("--beta", _REQUIRED),
      ("--coeffs", {"help": "comma-separated series coefficients"}),
      ("--coeffs-json", {"help": "TruncFn JSON (or @file)"}), _CAP,
      ("--inverse", {"action": "store_true"}))),
    ("project", "Fourier projection onto a gauge mode", cmd_project,
     (("--k", {"type": int, "required": True}), ("--coeffs", {}), ("--coeffs-json", {}), _CAP)),
    ("pcf-eval", "evaluate the parabolic cylinder D_lambda", cmd_pcf_eval,
     (("--lam", _REQUIRED), ("--x", _REQUIRED))),
    ("build-rep", "build a representation and print it", cmd_build_rep, _REP_ARGS),
    ("verify-rep", "residuals of the defining identities", cmd_verify_rep,
     _REP_ARGS + (("--rep", {"help": "representation JSON (or @file); overrides --kind"}),)),
    ("reduce-canonical", "canonical form of a unimodular isomorphism", cmd_reduce_canonical,
     (_V, ("--mu", {"default": "0"}))),
    ("multimode-build", "build the multimode representation", cmd_multimode_build,
     (("--eta", {"required": True, "help": "comma-separated +-1 per mode"}), _CAP)),
    ("spectral-check", "Fourier support of <g, U(s) f>", cmd_spectral_check,
     (("--eta", _REQUIRED), _CAP, ("--f", {"required": True, "help": "state JSON (or @file)"}),
      ("--g", _REQUIRED))),
    ("vacuum-descent", "descend a state to the vacuum ray", cmd_vacuum_descent,
     (("--eta", _REQUIRED), _CAP, ("--f", _REQUIRED))),
)


@functools.cache  # built once per process: building it costs more than most verbs
def build_parser():
    top = argparse.ArgumentParser(
        prog="kreinccr",
        description="Algebra, orbit, special-function, and representation "
                    "computations for CCR algebras on entire functions.")
    top.add_argument("--config", help="key=value file with defaults "
                     f"({', '.join(CONFIG_KEYS)})")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, help_, fn, arguments in VERBS:
        p = sub.add_parser(verb, help=help_)
        # a value after a space may be "-" and a digit (-1/2, -2j), not just a decimal
        p._negative_number_matcher = re.compile(r"-\.?\d")
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(fn=fn)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = dict(DEFAULTS)
    try:
        if args.config:
            cfg.update(load_config(args.config))
        try:
            # a value that leaves the doubles is a NonFinite when printed,
            # not a numpy warning on stderr
            with np.errstate(all="ignore"):
                out = emit_json(args.fn(args, cfg))
        except OverflowError as e:
            raise NonFinite(f"overflow: {e}") from None
    except KreinCcrError as e:
        err = {"error": str(e), "code": e.code}
        for k, v in e.payload.items():
            try:
                emit_json(v)  # a value emit_json cannot write is sent as its str
                err[k] = v
            except TypeError:
                err[k] = str(v)
        print(emit_json(err), file=sys.stderr)
        return 2 if isinstance(e, ParseError) else 1
    except Exception as e:
        # a failure the library does not type is still one JSON document
        err = {"error": str(e), "code": "InternalError", "type": type(e).__name__}
        print(emit_json(err), file=sys.stderr)
        return 1
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; pointing it at devnull keeps the
        # flush at exit from printing a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
