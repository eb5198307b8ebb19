"""Which hypermat functions are traced, and the per-layer metrics they give.

Layers are the package's modules.  ``homs``, ``instances`` and ``errors``
measured under 1% of every workload and get no metrics of their own.
"""

from __future__ import annotations

from hypermat import acceptance, cli, hmatroid, hyperfields, jsonio, matroids, vectorspace

from spans import Tracer

FUNCTIONS = {
    hyperfields: [
        "Hyperfield.mul", "Hyperfield.inv", "Hyperfield.neg", "Hyperfield.hyperadd",
        "Hyperfield.compose", "Hyperfield.require", "SymbolicSet.add_element",
        "SymbolicSet.intersect", "validate_axioms",
    ],
    hmatroid: [
        "perp", "perp_k", "dual_signature", "hmatroid_from_circuits",
        "check_circuit_axioms", "check_c3prime", "residue_matroid",
    ],
    vectorspace: [
        "vectors_enumerate", "covectors_enumerate", "vectors_generate",
        "check_vector_axioms", "is_perfect", "farkas_witness", "reconstruct_from_vectors",
    ],
    matroids: ["from_circuits", "enumerate_matroids", "minty_check", "minty_minimalize"],
    jsonio: ["hmatroid_from_json", "hvector_to_json", "dumps"],
    cli: ["run"],
}

ENUMERATORS = ("vectorspace.vectors_enumerate", "vectorspace.covectors_enumerate")
# Traced for the candidate count it returns; it gets no metrics of its own.
BUDGET = "vectorspace.check_budget"
# Numbers stored with each span of these functions.
SIZES = {
    BUDGET: lambda args, result: result,
    ENUMERATORS[0]: lambda args, result: len(result),
    ENUMERATORS[1]: lambda args, result: len(result),
    "vectorspace.check_vector_axioms": lambda args, result: len(args[0]) ** 2,
}


def _short(module):
    return module.__name__.rsplit(".", 1)[1]


def metric_name(module, path):
    """``hyperfields.mul`` for a Hyperfield method, ``hyperfields.SymbolicSet.add_element`` else."""
    return f"{_short(module)}.{path.removeprefix('Hyperfield.')}"


def tracer() -> Tracer:
    targets = []
    for module, paths in FUNCTIONS.items():
        for path in paths:
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            name = metric_name(module, path)
            targets.append((name, owner, attr, SIZES.get(name)))
    targets.append((BUDGET, vectorspace, "check_budget", SIZES[BUDGET]))
    for i in range(len(acceptance.CRITERIA)):
        targets.append((f"acceptance.C{i + 1}", acceptance.CRITERIA, i, None))
    return Tracer(targets)


def per_layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of the spans recorded since the last reset.

    Returns {name: (value, unit, better)}.
    """
    summary = tr.summary()
    out = {}
    for name, (calls, self_s, total_s, _) in summary.items():
        if name.startswith("acceptance."):
            out[f"{name}.s"] = (total_s, "s", "lower")
        elif name != BUDGET:
            out[f"{name}.calls"] = (calls, "count", "lower")
            out[f"{name}.self_s"] = (self_s, "s", "lower")
    for name in ("hyperfields.mul", "hyperfields.hyperadd"):
        calls, _, total_s, _ = summary[name]
        out[f"{name}.ns_per_call"] = (_ratio(total_s * 1e9, calls), "ns", "lower")
    enum_self = sum(summary[n][1] for n in ENUMERATORS)
    found = sum(summary[n][3] for n in ENUMERATORS)
    candidates = tr.size_under(BUDGET, ENUMERATORS)
    perps = tr.count_under("hmatroid.perp", ENUMERATORS)
    out["vectorspace.enumerate.candidates_per_s"] = (_ratio(candidates, enum_self), "1/s", "higher")
    out["vectorspace.enumerate.found_per_perp"] = (_ratio(found, perps), "ratio", "higher")
    _, axioms_self, _, pairs = summary["vectorspace.check_vector_axioms"]
    out["vectorspace.check_vector_axioms.pairs_per_s"] = (_ratio(pairs, axioms_self), "1/s", "higher")
    return out


def _ratio(a, b):
    return a / b if b else 0.0
