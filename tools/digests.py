"""Print one sha256 per exact-norm batch, sigma case, net build and experiment CSV, to diff checkouts.

Run from the root of a checkout, with the BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 python3 tools/digests.py > digests.txt

Each line is ``<label> <sha256>``.  Running it on two checkouts and
diffing the outputs is the byte-identity check of a change to the kernels:

* ``exact/...``: the exact norms of 64 seeded points, and the value
  blocks of one point (``iter_exact_value_blocks``, the concentration
  path), at n = 5 and 9 (the whole-table kernel) and 10, 13, 16 and 17 on
  l_inf, l1, l2, l3, the 6-row polytope and a 40-row polytope, whose points
  span several tiles at n = 16;
* ``sigma/...``: ``nl.sigma`` at 64 seeded points (the first one zero)
  of l_inf, l1 (within its vertex cap, and over it: ``weak_variances`` on
  a batch of one of an instance with ``vertex_cap = 2``, with
  ``lower_bound_beyond_cap``), l2, l3 and 6-row polytope families in R^3
  and of l1 families in R^16 (``l1-m16``, whose 2^15 dual vertices span
  two vertex blocks) at n = 1, 5 and 12, one line over the values, flags
  and certificates and one (``.../method``) over the method labels;
* ``net/...``: 252 greedy builds (l_inf, l1, l2 and l3 families at
  n = 1..5, theta 0.5, 0.6 and 1.0, budget None, 1, 2 and 30; polytope
  families at n = 4 and 5, the same thetas, budget None and 30), hashed
  over points, size, candidate_budget and covering_status;
* ``csv/...``: every CSV and net file, and the ``results`` block of the
  report (``csv/<label>/results``, its JSON with sorted keys), of the
  experiments of the acceptance criteria at their fixed seeds, of small
  distortion runs on every kind of space with a theta = 1/2 net, of
  concentration on l1, l2, l3 and the polytope, of
  distortion (l1, l3) and scalar sweeps whose descents run until their
  steps fall below the floor, of distortion at an xi that N = round((1+xi) n)
  moves and at an N alone, of sweeps that repeat an xi, and of the first
  batches of the benchmark workloads: two of each, and twenty of
  ``nets-n4``, whose batches are one build each.

``--only exact``, ``--only sigma``, ``--only net`` or ``--only csv`` prints
one part, and ``--match PREFIX`` only the experiments whose label starts
with PREFIX.
The whole run takes a few minutes on two cores.

``--golden`` prints the ``exact/``, ``sigma/`` and ``net/`` lines and the
``csv/`` lines of every experiment but the slow ones (``GOLDEN_SKIP``)
after a header that names the numpy and BLAS build they were made on
(about 20 s).  That is the committed file ``tests/golden_digests.txt``,
which a test recomputes.  It runs OpenBLAS's Haswell kernels and numpy's
X86_V3 loops, which every CPU with AVX2 and FMA3 runs, so that the file does
not depend on the core of the machine.  After an intended change of those
outputs, regenerate it with (the NPY_ setting names numpy 2.4's levels above
X86_V3; ``--golden`` says which ones another numpy runs)

    OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Haswell \\
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
        python3 tools/digests.py --golden > tests/golden_digests.txt
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import normlab as nl  # noqa: E402
from benchmarks.workloads import WORKLOADS, batch_config  # noqa: E402
from normlab.harness import run_experiment, validate_config  # noqa: E402
from normlab.symmetrize import iter_exact_value_blocks  # noqa: E402
from normlab.weakvar import SigmaResult, weak_variances  # noqa: E402

LP = {"linf": "inf", "l1": 1, "l2": 2, "l3": 3}
POLYTOPE = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 1], [0.5, 2, -1]]


def _space(kind: str, dim: int = 3):
    return nl.polytope_space(POLYTOPE) if kind == "poly" else nl.lp_space(LP[kind], dim)


def _vectors(kind: str, n: int, dim: int = 3) -> list:
    seed = 1000 * (list(LP) + ["poly"]).index(kind) + n
    return np.random.default_rng(seed).standard_normal((n, dim)).tolist()


GOLDEN_BUILD = "# made on "
# the csv/ experiments that --golden leaves out: together about a minute
GOLDEN_SKIP = ("c6-", "c7", "kinds-l3-distortion")


def numpy_simd() -> list:
    """The levels of numpy's SIMD dispatch that run here, beyond its baseline:
    numpy too picks its loops by the CPU at load, and its X86_V3 and X86_V4
    loops give other bits on l3 (exact norms, nets)."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def build() -> str:
    """numpy's version and SIMD levels, its BLAS, and the core whose kernels
    OpenBLAS runs: a DYNAMIC_ARCH OpenBLAS picks its kernels by the CPU at
    load, and the kernels of two cores need not round alike."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "core unknown"
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            get = getattr(ctypes.CDLL(str(lib)), name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                core = get().decode()
    simd = " ".join(numpy_simd()) or "baseline"
    return f"numpy {np.__version__} at {simd}, {blas['name']} {blas['version']}, {core}"


def exact_digests():
    wide = np.random.default_rng(40).standard_normal((40, 3))
    for n in (5, 9, 10, 13, 16, 17):
        for kind in (*LP, "poly", "poly40"):
            space = nl.polytope_space(wide) if kind == "poly40" else _space(kind)
            fam = nl.make_family(space, np.random.default_rng(n).standard_normal((n, 3)))
            X = np.random.default_rng(100 + n).standard_normal((64, n))
            inst = nl.NormInstance(family=fam)
            norms = nl.exact_unconditional_norm_many(inst, X)
            yield f"exact/{kind}-n{n}-norms", hashlib.sha256(norms.tobytes()).hexdigest()
            h = hashlib.sha256()
            for block in iter_exact_value_blocks(inst, X[0]):
                h.update(f"{block.size} ".encode())
                h.update(block.tobytes())
            yield f"exact/{kind}-n{n}-blocks", h.hexdigest()


def _sigma(inst, x, capped: bool):
    """``nl.sigma`` at x, or with ``capped`` the flagged lower bound that
    ``weak_variances`` gives past the instance's l1 vertex cap."""
    if not capped:
        return nl.sigma(inst, x)
    values, certificates, flags, method = weak_variances(inst, x[None], lower_bound_beyond_cap=True)
    return SigmaResult(float(values[0]), method, certificates[0], bool(flags[0]))


def sigma_digests():
    cases = [("linf", 3, {}), ("l1", 3, {}), ("l1-capped", 3, {"vertex_cap": 2}),
             ("l2", 3, {}), ("l3", 3, {}), ("poly", 3, {}), ("l1-m16", 16, {})]
    for label, dim, caps in cases:
        kind = label.split("-")[0]
        for n in (1, 5, 12):
            inst = nl.NormInstance(nl.make_family(_space(kind, dim), _vectors(kind, n, dim)), **caps)
            X = np.random.default_rng(200 + n).standard_normal((64, n))
            X[0] = 0.0
            h, methods = hashlib.sha256(), hashlib.sha256()
            for x in X:
                r = _sigma(inst, x, bool(caps))
                h.update(np.float64(r.value).tobytes() + bytes([r.lower_bound_only]))
                h.update(r.certificate.tobytes())
                methods.update(f"{r.method}\n".encode())
            yield f"sigma/{label}-n{n}", h.hexdigest()
            yield f"sigma/{label}-n{n}/method", methods.hexdigest()


def net_digests():
    cases = [(k, n, b) for k in LP for n in range(1, 6) for b in (None, 1, 2, 30)]
    cases += [("poly", n, b) for n in (4, 5) for b in (None, 30)]
    for kind, n, budget in cases:
        inst = nl.NormInstance(family=nl.make_family(_space(kind), _vectors(kind, n)))
        for theta in (0.5, 0.6, 1.0):
            net = nl.build_net(inst, theta, budget=budget, seed=n)
            h = hashlib.sha256(np.ascontiguousarray(net.points).tobytes())
            h.update(f"{net.size} {net.candidate_budget} {net.covering_status}".encode())
            yield f"net/{kind}-n{n}-theta{theta}-budget{budget}", h.hexdigest()


def _linf4(seed: int, n: int) -> list:
    return np.random.default_rng(seed).standard_normal((n, 4)).tolist()


def _configs(tmp: Path):
    """(label, config) of every experiment, in order; a later config may read
    a net file that an earlier one wrote."""
    linf4 = {"kind": "lp", "p": "inf", "dim": 4}
    # criterion 5: nets of l_inf^4 families at n = 1..5
    rng = np.random.default_rng(505)
    for n in range(1, 6):
        vectors = rng.standard_normal((n, 4)).tolist()
        for theta in (0.5, 0.25):
            doc = {"experiment": "net-build", "space": linf4, "vectors": vectors, "theta": theta,
                   "master_seed": 1700 + n}
            if theta != 0.5 and n > 3:
                doc["budget"] = 60
            yield f"c5-n{n}-theta{theta}", doc
    # criterion 6: the distortion trend at n = 8, 12, 16
    for n in (8, 12, 16):
        yield f"c6-n{n}", {
            "experiment": "distortion", "space": linf4, "vectors": _linf4(6000 + n, n),
            "xi": 0.5, "trials": 200, "probes": {"samples": 2000, "descent_steps": 50},
            "master_seed": 611, "threads": 2,
        }
    # criterion 7: the xi sweep at n = 12
    yield "c7", {
        "experiment": "xi-sweep", "space": linf4, "vectors": _linf4(6012, 12),
        "xi_list": [0.1, 0.25, 0.5, 1.0, 4.0, 16.0], "trials": 200,
        "probes": {"samples": 300, "descent_steps": 10}, "master_seed": 712, "threads": 2,
    }
    # criterion 9: the scalar sweep at n = 20
    yield "c9", {
        "experiment": "scalar-sweep", "n": 20, "xi_list": [0.1, 0.25, 0.5, 1.0], "trials": 500,
        "probes": {"samples": 64, "descent_steps": 25, "restarts": 2}, "master_seed": 909,
        "threads": 2,
    }
    # criterion 10: exact distributions and amplification
    yield "c10-n14", {
        "experiment": "concentration", "space": linf4, "vectors": _linf4(1010, 14),
        "x": np.random.default_rng(1011).standard_normal(14).tolist(), "master_seed": 1010,
    }
    yield "c10-two-atoms", {
        "experiment": "concentration", "space": {"kind": "lp", "p": "inf", "dim": 1},
        "vectors": [[1.0], [1.0]], "x": [1.0, 1.0], "N_list": [2, 4, 8, 16], "t": 1.5,
        "trials": 2500, "master_seed": 1011,
    }
    # criterion 11: distortion and scalar sweep
    yield "c11-distortion", {
        "experiment": "distortion", "space": {"kind": "lp", "p": "inf", "dim": 3},
        "vectors": np.random.default_rng(1111).standard_normal((8, 3)).tolist(), "xi": 0.5,
        "trials": 8, "probes": {"samples": 60, "descent_steps": 10}, "master_seed": 77,
    }
    yield "c11-scalar", {
        "experiment": "scalar-sweep", "n": 6, "xi_list": [0.5, 1.0], "trials": 6,
        "probes": {"samples": 32, "descent_steps": 10}, "master_seed": 78,
    }
    # every kind of space: a theta = 1/2 net, then distortion with it and
    # exact and empirical norms
    for kind in (*LP, "poly"):
        space = nl.space_to_json(_space(kind))
        fam = {"space": space, "vectors": _vectors(kind, 3)}
        net_dir = tmp / f"kinds-{kind}-net"
        yield f"kinds-{kind}-net", {"experiment": "net-build", **fam, "theta": 0.5,
                                    "master_seed": 5}
        yield f"kinds-{kind}-distortion", {
            "experiment": "distortion", **fam, "xi": 1.0, "trials": 4,
            "probes": {"samples": 200, "descent_steps": 20,
                       "net_file": str(net_dir / "net.json")},
            "master_seed": 6,
        }
        fam6 = {"space": space, "vectors": _vectors(kind, 6)}
        yield f"kinds-{kind}-exact", {"experiment": "exact-norm", **fam6, "count": 300,
                                      "master_seed": 7}
        yield f"kinds-{kind}-empirical", {"experiment": "empirical-norm", **fam6, "xi": 2.0,
                                          "count": 300, "master_seed": 8}
    # exact distributions on the kinds that criterion 10 does not run
    for kind in ("l1", "l2", "l3", "poly"):
        yield f"kinds-{kind}-concentration", {
            "experiment": "concentration", "space": nl.space_to_json(_space(kind)),
            "vectors": _vectors(kind, 6), "x": np.random.default_rng(14).standard_normal(6).tolist(),
            "master_seed": 14,
        }
    # descents long enough that their steps fall below DESCENT_STEP_MIN
    for kind in ("l1", "l3"):
        yield f"descent-{kind}-distortion", {
            "experiment": "distortion", "space": nl.space_to_json(_space(kind)),
            "vectors": _vectors(kind, 4), "xi": 0.5, "trials": 3,
            "probes": {"samples": 100, "descent_steps": 200}, "master_seed": 9,
        }
    yield "descent-scalar", {
        "experiment": "scalar-sweep", "n": 8, "xi_list": [0.25, 1.0], "trials": 4,
        "probes": {"samples": 64, "descent_steps": 200, "restarts": 8}, "master_seed": 10,
    }
    # distortion sweeps its resolved xi: at n = 12, xi = 0.1 gives N = 13 and
    # runs at 13/12 - 1; and at an N with no xi
    for tag, size in (("xi", {"xi": 0.1}), ("N", {"N": 13})):
        yield f"resolved-{tag}-distortion", {
            "experiment": "distortion", "space": linf4, "vectors": _linf4(1212, 12), **size,
            "trials": 3, "probes": {"samples": 100, "descent_steps": 10}, "master_seed": 11,
        }
    # sweeps with a repeated xi
    yield "repeat-xi-sweep", {
        "experiment": "xi-sweep", "space": linf4, "vectors": _linf4(1313, 6),
        "xi_list": [0.5, 1.0, 0.5], "trials": 3, "probes": {"samples": 60, "descent_steps": 5},
        "master_seed": 12,
    }
    yield "repeat-scalar", {
        "experiment": "scalar-sweep", "n": 6, "xi_list": [1.0, 0.5, 1.0], "trials": 4,
        "probes": {"samples": 32, "descent_steps": 10}, "tau": 0.7, "master_seed": 13,
    }
    # the benchmark workloads, two batches each and twenty one-build
    # batches of nets-n4
    for name in WORKLOADS:
        for i in range(20 if name == "nets-n4" else 2):
            yield f"bench-{name}-{i}", batch_config(name, 1, i, "")


def csv_digests(match: str = "", skip: tuple = ()):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, doc in _configs(tmp):
            if not label.startswith(match) or label.startswith(skip):
                continue
            out = tmp / label
            doc["output"] = {"dir": str(out), "formats": ["csv"]}
            report = run_experiment(validate_config(doc))
            for path in sorted(out.glob("*")):
                yield f"csv/{label}/{path.name}", hashlib.sha256(path.read_bytes()).hexdigest()
            results = json.dumps(report.to_json()["results"], sort_keys=True).encode()
            yield f"csv/{label}/results", hashlib.sha256(results).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=("exact", "sigma", "net", "csv"))
    ap.add_argument("--match", default="", help="run only the experiments whose label starts so")
    ap.add_argument("--golden", action="store_true", help="the golden file: exact, sigma, net, cheap csv")
    args = ap.parse_args(argv)
    if args.golden:
        if os.environ.get("OPENBLAS_NUM_THREADS") != "1" or os.environ.get("OPENBLAS_CORETYPE") != "Haswell":
            ap.error("--golden needs OPENBLAS_NUM_THREADS=1 and OPENBLAS_CORETYPE=Haswell")
        if numpy_simd() != ["X86_V3"]:
            ap.error(f"--golden needs numpy at X86_V3, not {numpy_simd()}: "
                     "name the levels above it in NPY_DISABLE_CPU_FEATURES")
        print("# exact/, sigma/, net/ and csv/ (but GOLDEN_SKIP) digests of tools/digests.py"
              " on OpenBLAS's Haswell kernels and numpy's X86_V3 loops, at OPENBLAS_NUM_THREADS=1")
        print(GOLDEN_BUILD + build())
        for digests in (exact_digests, sigma_digests, net_digests):
            for label, digest in digests():
                print(label, digest)
        for label, digest in csv_digests(skip=GOLDEN_SKIP):
            print(label, digest)
        return 0
    if args.only in (None, "exact") and not args.match:
        for label, digest in exact_digests():
            print(label, digest, flush=True)
    if args.only in (None, "sigma") and not args.match:
        for label, digest in sigma_digests():
            print(label, digest, flush=True)
    if args.only in (None, "net") and not args.match:
        for label, digest in net_digests():
            print(label, digest, flush=True)
    if args.only in (None, "csv"):
        for label, digest in csv_digests(args.match):
            print(label, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
