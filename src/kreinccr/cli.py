"""Command-line front end.

Every command is stateless: it parses its inputs, dispatches to the
library, and prints one JSON document on stdout.  Errors are printed as
JSON on stderr with a machine-readable ``code`` field; exit status is 0
on success, 1 on domain errors (``NonFinite`` for NaN, Inf or overflow)
and on unexpected failures (``InternalError``, naming the exception type),
2 on parse errors.  Floats have 17 significant digits: output is byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import multimode, pcf, reps, sl2, truncfn
from .algebra import (Involution, apply_isomorphism, commutator,
                      format_element, normal_order)
from .dsl import parse_expr, to_element
from .exceptions import DomainError, KreinCcrError, NonFinite, ParseError

CONFIG_KEYS = ("degree_cap", "tolerance", "lambda_window", "x_window")
DEFAULTS = {"degree_cap": 16, "tolerance": 1e-10,
            "lambda_window": pcf.LAMBDA_WINDOW, "x_window": pcf.X_WINDOW}


# -- deterministic JSON ------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFinite(f"non-finite value {x} in output")
    if x == 0:
        x = 0.0  # normalize -0.0
    s = format(x, ".17g")
    return s


def emit_json(obj) -> str:
    """json.dumps with fixed float formatting and sorted keys."""
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{emit_json(v)}"
                         for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return emit_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _scalar_or_pair(z):
    """Real numbers as plain floats, properly complex ones as [re, im]."""
    z = complex(z)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


# -- input parsing helpers ---------------------------------------------

def _number(text):
    """A real or complex number from the command line ('1/2', '0.3', '1+2j')."""
    text = text.strip()
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise ParseError(f"not a number: {text!r}", offset=0,
                         expected=("number",)) from None

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
            out[key] = float(value.strip())
        except ValueError:
            raise ParseError(f"config line {lineno}: {key} is not a number",
                             offset=0, expected=("number",)) from None
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
    out = json.loads(g.to_json())
    out["implementation_residual"] = truncfn.verify_implementation(alpha, beta, f)
    return out


def cmd_project(args, cfg):
    cap = _degree_cap(args, cfg)
    f = _truncfn_arg(args, cap)
    g = truncfn.fourier_project(truncfn.rotation_family, f, args.k)
    return json.loads(g.to_json())


def cmd_pcf_eval(args, cfg):
    lam = _number(args.lam)
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
    if args.kind == "fock":
        return reps.build_fock_bargmann(args.levels)
    if args.kind == "antifock":
        return reps.build_antifock(args.levels)
    return reps.build_schroedinger_theta(
        theta=args.theta, gamma=args.gamma, levels=args.levels,
        sign=args.sign, min_level=args.min_level)


def cmd_build_rep(args, cfg):
    return json.loads(_build_rep(args).to_json())


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
    return {"vacuum": json.loads(psi0.to_json()),
            "on_constant_ray": set(psi0.terms) == {()}}


# -- argument wiring ---------------------------------------------------

@functools.cache  # built once per process: building it costs more than most verbs
def build_parser():
    top = argparse.ArgumentParser(
        prog="kreinccr",
        description="Algebra, orbit, special-function, and representation "
                    "computations for CCR algebras on entire functions.")
    top.add_argument("--config", help="key=value file with defaults "
                     f"({', '.join(CONFIG_KEYS)})")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("normal-order", help="normal-order an expression")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_normal_order)

    p = sub.add_parser("commutator", help="commutator of two expressions")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_commutator)

    p = sub.add_parser("involve", help="apply an antilinear involution")
    p.add_argument("expr")
    p.add_argument("--c-matrix", required=True,
                   help="4 comma-separated entries of C (row major)")
    p.set_defaults(fn=cmd_involve)

    p = sub.add_parser("isomap", help="map a Heisenberg expression through "
                       "(a*, a)^T = V (z, d)^T")
    p.add_argument("expr")
    p.add_argument("--v", required=True, help="4 comma-separated entries of V")
    p.set_defaults(fn=cmd_isomap)

    p = sub.add_parser("classify-orbit", help="adjoint orbit of an sl2 vector")
    p.add_argument("--n3", required=True)
    p.add_argument("--nminus", required=True)
    p.add_argument("--nplus", required=True)
    p.set_defaults(fn=cmd_classify_orbit)

    p = sub.add_parser("gamma-s", help="apply the implementer of S(alpha, beta)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--coeffs", help="comma-separated series coefficients")
    p.add_argument("--coeffs-json", help="TruncFn JSON (or @file)")
    p.add_argument("--degree-cap", type=int)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(fn=cmd_gamma_s)

    p = sub.add_parser("project", help="Fourier projection onto a gauge mode")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coeffs")
    p.add_argument("--coeffs-json")
    p.add_argument("--degree-cap", type=int)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("pcf-eval", help="evaluate the parabolic cylinder D_lambda")
    p.add_argument("--lam", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(fn=cmd_pcf_eval)

    def rep_args(p):
        p.add_argument("--kind", choices=("fock", "antifock", "schroedinger"),
                       default="fock")
        p.add_argument("--levels", type=int, default=8)
        p.add_argument("--theta", type=float, default=0.0)
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--sign", type=int, choices=(1, -1), default=1)
        p.add_argument("--min-level", type=int, default=0)

    p = sub.add_parser("build-rep", help="build a representation and print it")
    rep_args(p)
    p.set_defaults(fn=cmd_build_rep)

    p = sub.add_parser("verify-rep", help="residuals of the defining identities")
    rep_args(p)
    p.add_argument("--rep", help="representation JSON (or @file); overrides --kind")
    p.set_defaults(fn=cmd_verify_rep)

    p = sub.add_parser("reduce-canonical",
                       help="canonical form of a unimodular isomorphism")
    p.add_argument("--v", required=True, help="4 comma-separated entries of V")
    p.add_argument("--mu", default="0")
    p.set_defaults(fn=cmd_reduce_canonical)

    p = sub.add_parser("multimode-build", help="build the multimode representation")
    p.add_argument("--eta", required=True, help="comma-separated +-1 per mode")
    p.add_argument("--degree-cap", type=int)
    p.set_defaults(fn=cmd_multimode_build)

    p = sub.add_parser("spectral-check", help="Fourier support of <g, U(s) f>")
    p.add_argument("--eta", required=True)
    p.add_argument("--degree-cap", type=int)
    p.add_argument("--f", required=True, help="state JSON (or @file)")
    p.add_argument("--g", required=True)
    p.set_defaults(fn=cmd_spectral_check)

    p = sub.add_parser("vacuum-descent", help="descend a state to the vacuum ray")
    p.add_argument("--eta", required=True)
    p.add_argument("--degree-cap", type=int)
    p.add_argument("--f", required=True)
    p.set_defaults(fn=cmd_vacuum_descent)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = dict(DEFAULTS)
    try:
        if args.config:
            cfg.update(load_config(args.config))
        try:
            out = emit_json(args.fn(args, cfg))
        except OverflowError as e:
            raise NonFinite(f"overflow: {e}") from None
    except ParseError as e:
        err = {"error": str(e), "code": e.code, "offset": e.offset,
               "expected": list(e.expected)}
        print(emit_json(err), file=sys.stderr)
        return 2
    except KreinCcrError as e:
        err = {"error": str(e), "code": e.code}
        for k, v in e.payload.items():
            try:
                err[k] = json.loads(emit_json(v))
            except TypeError:
                err[k] = str(v)
        print(emit_json(err), file=sys.stderr)
        return 1
    except Exception as e:
        # a failure the library does not type is still one JSON document
        err = {"error": str(e), "code": "InternalError", "type": type(e).__name__}
        print(emit_json(err), file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
