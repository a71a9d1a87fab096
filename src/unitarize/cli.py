"""Command line front end.

Every subcommand reads matrices as {"dim": n, "data": [[re, im], ...]} JSON
files, prints one report to stdout, and exits with 0 for a positive or
neutral outcome, 2 for a negative domain verdict (unbounded orbit, broken
relations, failed factorization), and 1 for malformed input or usage
errors.  Reports are canonical: the same inputs produce byte-identical
bytes.  The UNITARIZE_SEED environment variable seeds the randomized
example generator.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

import numpy as np

from . import alternatives, boundedness, families, hamiltonian, intertwine, line_models, metrics
from .core import DEFAULT_TOLERANCES, HermitianForm, ToleranceConfig, invariance_residual
from .errors import (
    DivergenceDetected,
    InvalidInput,
    NotAutomorphism,
    NotBoundedFlow,
    NotCommuting,
    NotSelfAdjoint,
    NotUniformlyBounded,
    RelationViolated,
    SingularShift,
    UnitarizeError,
)
from .serialization import (
    AnalysisReport,
    form_payload,
    inputs_digest,
    load_json,
    matrix_payload,
    parse_form,
    parse_matrix,
)

# Domain-level negative answers: the input was well formed, the mathematics
# said no.  Everything else inheriting UnitarizeError is a usage error.
DOMAIN_ERRORS = (
    NotUniformlyBounded,
    NotAutomorphism,
    NotCommuting,
    RelationViolated,
    NotBoundedFlow,
    DivergenceDetected,
    SingularShift,
    NotSelfAdjoint,
)

_FACTORIZATION_RTOL = 1e-9


def _verdict_name(exc: Exception) -> str:
    name = type(exc).__name__
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _config(args) -> ToleranceConfig:
    base = DEFAULT_TOLERANCES
    return ToleranceConfig(
        eig_cluster_tol=args.tol_cluster
        if args.tol_cluster is not None
        else base.eig_cluster_tol,
        psd_tol=base.psd_tol,
        unitarity_tol=args.tol_unitary
        if args.tol_unitary is not None
        else base.unitarity_tol,
        cesaro_horizon=args.horizon if args.horizon is not None else base.cesaro_horizon,
        cesaro_rel_tol=base.cesaro_rel_tol,
    )


def _load_operator(path: str):
    payload = load_json(path)
    return parse_matrix(payload), payload


def _load_fiducial(path: str | None, dim: int, cfg: ToleranceConfig):
    """A form path, the literal "identity", or None."""
    if path is None or path == "identity":
        return None, {"kind": "identity"}
    payload = load_json(path)
    form = parse_form(payload, psd_tol=cfg.psd_tol)
    if form.dim != dim:
        raise InvalidInput(
            f"fiducial form dimension {form.dim} does not match operator "
            f"dimension {dim}"
        )
    return form, payload


def _run(command, payloads, cfg, fill) -> tuple[AnalysisReport, int]:
    report = AnalysisReport(
        command=command,
        inputs_digest=inputs_digest(payloads),
        tolerances=dataclasses.asdict(cfg),
    )
    code = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = fill(report) or 0
        except DOMAIN_ERRORS as exc:
            report.verdicts["outcome"] = _verdict_name(exc)
            report.verdicts["detail"] = str(exc)
            code = 2
    report.warnings = [str(w.message) for w in caught]
    return report, code


def _cmd_check(args):
    cfg = _config(args)
    T, payload = _load_operator(args.infile)

    def fill(report):
        if args.generator:
            gen = boundedness.check_generator(T, cfg)
            report.verdicts["outcome"] = gen.verdict
            report.scalars["spectrum"] = [complex(z) for z in gen.spectrum]
            report.scalars["off_real"] = [complex(z) for z in gen.off_real]
            report.scalars["defective"] = [complex(z) for z in gen.defective]
            return 0 if gen.similar_to_self_adjoint else 2
        rep = boundedness.check_uniformly_bounded(T, cfg)
        report.verdicts["outcome"] = rep.verdict
        report.verdicts["reasons"] = list(rep.reasons)
        report.scalars["off_circle"] = [complex(z) for z in rep.off_circle]
        report.scalars["defective"] = [complex(z) for z in rep.defective]
        report.scalars["sampled_power_norms"] = {
            str(k): rep.sampled_power_norms[k] for k in sorted(rep.sampled_power_norms)
        }
        if rep.bound_estimate is not None:
            report.scalars["bound_estimate"] = rep.bound_estimate
        normality = boundedness.check_normal_dichotomy(T, cfg)
        report.verdicts["normality"] = normality.verdict
        return 0 if rep.bounded else 2

    return _run("check", [payload], cfg, fill)


def _cmd_nagy(args):
    cfg = _config(args)
    T, payload = _load_operator(args.infile)
    h0, h0_payload = _load_fiducial(args.h0, T.shape[0], cfg)

    def fill(report):
        result = metrics.invariant_metric(T, h0, cfg)
        report.verdicts["outcome"] = "unitarizable"
        report.matrices["invariant_gram"] = matrix_payload(result.invariant_form.gram)
        report.matrices["positive_similarity"] = matrix_payload(
            result.positive_similarity
        )
        report.matrices["unitarized"] = matrix_payload(result.unitarized)
        report.residuals.update(result.residuals)
        return 0

    return _run("nagy", [payload, h0_payload], cfg, fill)


def _cmd_oracle(args):
    cfg = _config(args)
    T, payload = _load_operator(args.infile)
    h0, h0_payload = _load_fiducial(args.h0, T.shape[0], cfg)

    def fill(report):
        form, drift = metrics.cesaro_oracle(T, h0, cfg.cesaro_horizon, cfg)
        report.verdicts["outcome"] = "averaged"
        report.matrices["cesaro_gram"] = matrix_payload(form.gram)
        report.scalars["horizon"] = cfg.cesaro_horizon
        report.residuals["cesaro_drift"] = drift
        return 0

    return _run("oracle", [payload, h0_payload], cfg, fill)


def _cmd_cayley(args):
    cfg = _config(args)
    T, payload = _load_operator(args.infile)

    def fill(report):
        image = metrics.inverse_cayley(T) if args.inverse else metrics.cayley(T)
        report.verdicts["outcome"] = "mapped"
        report.matrices["image"] = matrix_payload(image)
        return 0

    return _run("cayley", [payload, {"inverse": bool(args.inverse)}], cfg, fill)


def _cmd_log(args):
    cfg = _config(args)
    T, payload = _load_operator(args.infile)
    h0, h0_payload = _load_fiducial(args.h0, T.shape[0], cfg)

    def fill(report):
        result = metrics.invariant_metric(T, h0, cfg)
        gen = metrics.unitary_log(T, result, cfg)
        w, v = np.linalg.eig(gen)
        rebuilt = v @ (np.exp(1j * w)[:, None] * np.linalg.inv(v))
        g = np.asarray(result.invariant_form.gram)
        sym = g @ gen
        report.verdicts["outcome"] = "generated"
        report.matrices["generator"] = matrix_payload(gen)
        report.matrices["invariant_gram"] = matrix_payload(g)
        report.residuals["exp_reconstruction"] = float(
            np.linalg.norm(rebuilt - T) / max(np.linalg.norm(T), 1e-300)
        )
        report.residuals["self_adjointness"] = float(
            np.linalg.norm(sym - sym.conj().T) / max(np.linalg.norm(sym), 1e-300)
        )
        return 0

    return _run("log", [payload, h0_payload], cfg, fill)


def _parse_weights(payload) -> alternatives.ScalingSpec:
    if not isinstance(payload, dict):
        raise InvalidInput("the weights file must map cluster index to weight")
    weights = {}
    for key, val in payload.items():
        try:
            cluster = int(key)
        except ValueError:
            raise InvalidInput(f"cluster key {key!r} is not an integer") from None
        if isinstance(val, dict):
            weights[cluster] = parse_matrix(val)
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            weights[cluster] = float(val)
        else:
            raise InvalidInput(
                f"weight for cluster {cluster} must be a number or a matrix payload"
            )
    return alternatives.ScalingSpec(weights)


def _cmd_altmetric(args):
    cfg = _config(args)
    T, payload = _load_operator(args.infile)
    h0, h0_payload = _load_fiducial(args.h0, T.shape[0], cfg)
    if (args.weights is None) == (args.phi is None):
        raise InvalidInput("altmetric needs exactly one of --weights or --phi")

    if args.weights is not None:
        weights_payload = load_json(args.weights)
        spec = _parse_weights(weights_payload)

        def fill(report):
            form = alternatives.scaled_metric(T, spec, cfg)
            report.verdicts["outcome"] = "scaled_metric"
            report.matrices["scaled_gram"] = matrix_payload(form.gram)
            report.residuals["invariance"] = invariance_residual(T, form.gram)
            return 0

        return _run("altmetric", [payload, weights_payload], cfg, fill)

    phi_payload = load_json(args.phi)
    if isinstance(phi_payload, (int, float)) and not isinstance(phi_payload, bool):
        phi = {0: float(phi_payload)}
        phi_is_constant = True
    elif isinstance(phi_payload, dict):
        try:
            phi = {int(k): float(v) for k, v in phi_payload.items()}
        except (TypeError, ValueError):
            raise InvalidInput(
                "the phi file must map cluster index to a positive number"
            ) from None
        phi_is_constant = False
    else:
        raise InvalidInput("the phi file must hold a number or an index-to-value map")

    def fill(report):
        result = metrics.invariant_metric(T, h0, cfg)
        values = (lambda theta: phi[0]) if phi_is_constant else phi
        form, commuting = alternatives.phi_metric(T, result, values, cfg)
        g = np.asarray(form.gram)
        report.verdicts["outcome"] = "phi_metric"
        report.matrices["phi_gram"] = matrix_payload(g)
        report.matrices["commuting_factor"] = matrix_payload(commuting)
        report.residuals["invariance"] = invariance_residual(T, g)
        report.residuals["commutation"] = float(
            np.linalg.norm(T @ commuting - commuting @ T)
            / max(np.linalg.norm(commuting) * np.linalg.norm(T), 1e-300)
        )
        return 0

    return _run("altmetric", [payload, phi_payload], cfg, fill)


def _cmd_depend(args):
    cfg = _config(args)
    T, payload = _load_operator(args.infile)
    h0, h0_payload = _load_fiducial(args.h0, T.shape[0], cfg)
    h0p, h0p_payload = _load_fiducial(args.h0_prime, T.shape[0], cfg)
    if h0 is None:
        h0 = HermitianForm.identity(T.shape[0])
    if h0p is None:
        h0p = HermitianForm.identity(T.shape[0])
    horizon = args.horizon if args.horizon is not None else None

    def fill(report):
        dep = alternatives.metric_dependence(T, h0, h0p, cfg, horizon)
        report.verdicts["outcome"] = "analyzed"
        report.matrices["fiducial_change"] = matrix_payload(dep.fiducial_change)
        report.matrices["invariant_change"] = matrix_payload(dep.invariant_change)
        report.matrices["averaging_defect"] = matrix_payload(dep.averaging_defect)
        report.scalars["horizon"] = dep.horizon
        report.residuals.update(dep.residuals)
        report.residuals["cesaro_drift"] = dep.cesaro_residual
        return 0

    return _run("depend", [payload, h0_payload, h0p_payload], cfg, fill)


def _cmd_pair(args):
    cfg = _config(args)
    T1, payload1 = _load_operator(args.t1)
    T2, payload2 = _load_operator(args.t2)
    h0, h0_payload = _load_fiducial(args.h0, T1.shape[0], cfg)

    def fill(report):
        result = families.commuting_pair_metric(T1, T2, h0, cfg)
        report.verdicts["outcome"] = "joint_metric"
        report.matrices["joint_gram"] = matrix_payload(result.form.gram)
        for label, stage in result.stages:
            report.matrices[f"stage_{label}_gram"] = matrix_payload(stage.gram)
        for label, res in result.unitarity_residuals.items():
            report.residuals[f"invariance_{label}"] = res
        if args.shortcut:
            cut = families.multiplicity_free_shortcut(T1, T2, h0, cfg)
            report.verdicts["shortcut"] = (
                "single_pass_suffices" if cut.valid else "degenerate_cluster"
            )
            report.residuals["shortcut_second_invariance"] = (
                cut.second_invariance_residual
            )
        return 0

    return _run("pair", [payload1, payload2, h0_payload], cfg, fill)


def _cmd_heisenberg(args):
    cfg = _config(args)
    T1, payload1 = _load_operator(args.t1)
    T2, payload2 = _load_operator(args.t2)
    T3, payload3 = _load_operator(args.t3)
    h0, h0_payload = _load_fiducial(args.h0, T1.shape[0], cfg)

    def fill(report):
        result = families.heisenberg_metric(
            T1, T2, T3, h0, cfg, relation_tol=args.relation_tol
        )
        report.verdicts["outcome"] = "joint_metric"
        report.matrices["joint_gram"] = matrix_payload(result.form.gram)
        for label, res in result.unitarity_residuals.items():
            report.residuals[f"invariance_{label}"] = res
        return 0

    return _run(
        "heisenberg", [payload1, payload2, payload3, h0_payload], cfg, fill
    )


def _cmd_intertwine(args):
    cfg = _config(args)
    T1, payload1 = _load_operator(args.t1)
    T2, payload2 = _load_operator(args.t2)
    h0, h0_payload = _load_fiducial(args.h0, T1.shape[0], cfg)

    def fill(report):
        result = intertwine.intertwiner(T1, T2, h0, cfg)
        report.verdicts["outcome"] = (
            "nonzero_connection" if result.nonzero else "disjoint_spectra"
        )
        report.matrices["in_fiducial_metric"] = matrix_payload(
            result.in_fiducial_metric
        )
        report.matrices["in_first_metric"] = matrix_payload(result.in_first_metric)
        report.matrices["in_second_metric"] = matrix_payload(result.in_second_metric)
        report.scalars["rank"] = result.rank
        report.scalars["common_eigenvalues"] = [
            complex(z) for z in result.common_eigenvalues
        ]
        report.residuals.update(result.relation_residuals)
        return 0

    return _run("intertwine", [payload1, payload2, h0_payload], cfg, fill)


def _cmd_hamiltonian(args):
    cfg = _config(args)
    dyn_payload = load_json(args.dyn)
    lam_payload = load_json(args.poisson)
    ham_payload = load_json(args.energy)
    dyn = parse_matrix(dyn_payload)
    lam = parse_matrix(lam_payload)
    ham = parse_matrix(ham_payload)
    for name, mat in (("dynamics", dyn), ("poisson", lam), ("energy", ham)):
        if np.max(np.abs(mat.imag)) > 1e-12 * max(np.max(np.abs(mat.real)), 1.0):
            raise InvalidInput(f"the {name} matrix must be real")

    def fill(report):
        fact = hamiltonian.ClassicalFactorization(lam.real, ham.real)
        residual = hamiltonian.factorization_check(dyn.real, fact)
        scale = 1.0 + float(np.linalg.norm(dyn.real))
        ok = residual <= _FACTORIZATION_RTOL * scale
        plus, minus = fact.signature
        report.verdicts["outcome"] = (
            "factorization_matches" if ok else "factorization_fails"
        )
        report.residuals["factorization"] = residual
        report.scalars["signature_plus"] = plus
        report.scalars["signature_minus"] = minus
        return 0 if ok else 2

    return _run(
        "hamiltonian", [dyn_payload, lam_payload, ham_payload], cfg, fill
    )


def _spec_from_payload(payload) -> line_models.GridOperatorSpec:
    if not isinstance(payload, dict):
        raise InvalidInput("the model spec must be a JSON object")
    kind = payload.get("kind")
    size = payload.get("size")
    if kind is None or size is None:
        raise InvalidInput('the model spec needs the keys "kind" and "size"')

    def profile(name):
        if name not in payload:
            return None
        val = payload[name]
        if not isinstance(val, list):
            raise InvalidInput(f'"{name}" must be a list of numbers')
        return np.asarray(val, dtype=float)

    return line_models.GridOperatorSpec(
        kind=kind,
        size=size,
        step=payload.get("step", 1),
        density=profile("density"),
        magnitude=profile("magnitude"),
        phase=profile("phase"),
    )


_KIND_ALIASES = {
    "shift": line_models.KIND_SHIFT,
    "parity": line_models.KIND_PARITY,
    "translation": line_models.KIND_TRANSLATION,
}


def _random_spec(kind: str, seed: int) -> tuple[line_models.GridOperatorSpec, dict]:
    kind = _KIND_ALIASES.get(kind, kind)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 9)) * 2
    if kind == line_models.KIND_SHIFT:
        density = rng.uniform(0.5, 2.0, size)
        spec = line_models.cyclic_shift_model(density, step=1)
    elif kind == line_models.KIND_PARITY:
        spec = line_models.parity_model(
            rng.uniform(0.5, 2.0, size), rng.uniform(0.0, 2.0 * np.pi, size)
        )
    elif kind == line_models.KIND_TRANSLATION:
        # one free parameter: the multiplier must alternate v, 1/v along
        # the whole step orbit for g(x + step) g(x) = 1 to close cyclically
        value = float(rng.uniform(0.5, 2.0))
        g = np.empty(size)
        g[0::2] = value
        g[1::2] = 1.0 / value
        spec = line_models.translation_model(
            g, rng.uniform(0.0, 2.0 * np.pi, size), step=1
        )
    else:
        known = sorted(set(_KIND_ALIASES) | set(_KIND_ALIASES.values()))
        raise InvalidInput(
            f"unknown grid model kind {kind!r}; expected one of " + ", ".join(known)
        )
    payload = {"kind": spec.kind, "size": spec.size, "step": spec.step}
    for name in ("density", "magnitude", "phase"):
        arr = getattr(spec, name)
        if arr is not None:
            payload[name] = [float(x) for x in arr]
    return spec, payload


def _cmd_example(args):
    cfg = _config(args)
    if (args.spec is None) == (args.random is None):
        raise InvalidInput("example needs exactly one of --spec or --random")
    if args.spec is not None:
        payload = load_json(args.spec)
        spec = _spec_from_payload(payload)
        seed = None
    else:
        seed = int(os.environ.get("UNITARIZE_SEED", "0"))
        spec, payload = _random_spec(args.random, seed)

    def fill(report):
        T, h0 = line_models.build(spec)
        report.matrices["operator"] = matrix_payload(T)
        report.matrices["fiducial_gram"] = form_payload(h0)
        if seed is not None:
            report.scalars["seed"] = seed
        result = metrics.invariant_metric(T, h0, cfg)
        g = np.asarray(result.invariant_form.gram)
        report.matrices["invariant_gram"] = matrix_payload(g)
        worst = 0.0
        if spec.kind == line_models.KIND_SHIFT:
            predicted = np.diag(line_models.shift_orbit_means(spec) + 0j)
        elif spec.kind == line_models.KIND_PARITY:
            predicted = np.diag(line_models.parity_metric_diagonal(spec) + 0j)
        else:
            predicted = np.diag(line_models.translation_metric_diagonal(spec) + 0j)
        worst = float(np.linalg.norm(g - predicted) / np.linalg.norm(predicted))
        report.residuals["metric_vs_closed_form"] = worst
        spectrum = line_models.spectrum_match_report(spec, cfg)
        report.residuals["spectrum_vs_closed_form"] = spectrum[
            "worst_eigenvalue_distance"
        ]
        if "covering_radius" in spectrum:
            report.scalars["covering_radius"] = spectrum["covering_radius"]
        ok = worst <= 1e-8 and spectrum["worst_eigenvalue_distance"] <= 1e-8
        report.verdicts["outcome"] = "model_consistent" if ok else "model_mismatch"
        return 0 if ok else 2

    return _run("example", [payload], cfg, fill)


def _add_common(sub, infile=True):
    if infile:
        sub.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sub.add_argument("--h0", default=None, metavar="FILE|identity")
    sub.add_argument("--tol-cluster", dest="tol_cluster", type=float, default=None)
    sub.add_argument("--tol-unitary", dest="tol_unitary", type=float, default=None)
    sub.add_argument("--horizon", type=int, default=None)
    sub.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitarize",
        description="Similarity to unitary operators, invariant metrics, and "
        "everything the averaging construction touches.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="decide boundedness of the power orbit")
    _add_common(p)
    p.add_argument("--generator", action="store_true", help="decide similarity to self-adjoint instead")
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser("nagy", help="invariant metric and unitarizing similarity")
    _add_common(p)
    p.set_defaults(handler=_cmd_nagy)

    p = subs.add_parser("oracle", help="finite power average of the fiducial metric")
    _add_common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = subs.add_parser("cayley", help="Cayley map between generators and evolutions")
    _add_common(p)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(handler=_cmd_cayley)

    p = subs.add_parser("log", help="self-adjoint logarithm of a unitarizable operator")
    _add_common(p)
    p.set_defaults(handler=_cmd_log)

    p = subs.add_parser("altmetric", help="scaled or spectrally rescaled invariant metrics")
    _add_common(p)
    p.add_argument("--weights", default=None, metavar="FILE")
    p.add_argument("--phi", default=None, metavar="FILE")
    p.set_defaults(handler=_cmd_altmetric)

    p = subs.add_parser("depend", help="dependence of the limit metric on the fiducial one")
    _add_common(p)
    p.add_argument("--h0-prime", dest="h0_prime", default=None, metavar="FILE|identity")
    p.set_defaults(handler=_cmd_depend)

    p = subs.add_parser("pair", help="joint metric of a commuting pair")
    _add_common(p, infile=False)
    p.add_argument("--t1", required=True, metavar="FILE")
    p.add_argument("--t2", required=True, metavar="FILE")
    p.add_argument("--shortcut", action="store_true", help="also test the single-pass shortcut")
    p.set_defaults(handler=_cmd_pair)

    p = subs.add_parser("heisenberg", help="joint metric of a discrete Weyl triple")
    _add_common(p, infile=False)
    p.add_argument("--t1", required=True, metavar="FILE")
    p.add_argument("--t2", required=True, metavar="FILE")
    p.add_argument("--t3", required=True, metavar="FILE")
    p.add_argument("--relation-tol", dest="relation_tol", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_heisenberg)

    p = subs.add_parser("intertwine", help="averaged connecting map between two operators")
    _add_common(p, infile=False)
    p.add_argument("--t1", required=True, metavar="FILE")
    p.add_argument("--t2", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_intertwine)

    p = subs.add_parser("hamiltonian", help="check a Poisson-energy factorization of linear dynamics")
    _add_common(p, infile=False)
    p.add_argument("--dyn", required=True, metavar="FILE")
    p.add_argument("--poisson", required=True, metavar="FILE")
    p.add_argument("--energy", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_hamiltonian)

    p = subs.add_parser("example", help="build a grid model and check it against closed forms")
    _add_common(p, infile=False)
    p.add_argument("--spec", default=None, metavar="FILE")
    p.add_argument(
        "--random",
        default=None,
        metavar="KIND",
        help="generate a random spec of the given kind (shift, parity, or "
        "translation), seeded by UNITARIZE_SEED",
    )
    p.set_defaults(handler=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except UnitarizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
