"""Planned ≡ unplanned determinism + spmm-reduction gate for the planner.

Runs one multi-filter efficiency slice (2 datasets × 5 filters × 1
scheme = 10 grid cells) twice through the real CLI — once with the basis
planner on (the default) and once under ``--no-plan`` (the exact
pre-planner code path) — and holds the propagation planner
(:mod:`repro.runtime.plan`) to its two contracts:

- **bit-identity**: the planner must NEVER change numerics. After
  stripping execution-dependent fields (wall times, RSS peaks, paths,
  timestamps — :func:`repro.bench.io.canonical_rows`), the planned and
  unplanned result payloads must be *byte-identical*. Scores, statuses,
  modeled bytes, FLOP counts: not one bit of drift is tolerated.
- **spmm reduction**: the planner must actually pay for itself. The
  filter slice is chosen so chains overlap — ``ppr``/``monomial_var``/
  ``hk`` share one monomial adjacency chain and ``chebyshev``/
  ``chebinterp`` share one Chebyshev chain per dataset — so the planned
  run's ``ops.spmm.calls`` must come in at least ``MIN_SPMM_REDUCTION``
  (40%) below the unplanned run's. At K=10 the slice does 50 unplanned
  precompute spmm per dataset vs 20 planned (one 10-term adjacency chain
  + one 10-term Chebyshev chain): a 60% reduction, so the gate has slack
  without being vacuous.
- **exact counters**: at ``EPOCHS_DEFAULT`` each mode's schedule-invariant
  op counters (:func:`repro.bench.io.deterministic_counters`: spmm /
  matmul / ewise calls, FLOPs and bytes) and each planned row's
  ``device_bytes`` must equal the committed
  ``benchmarks/golden/plan_smoke.json``. Any change in what the sweep
  computes or keeps resident shows here as a diff. A run under a
  ``REPRO_BENCH_EPOCHS`` override skips only this check. On a mismatch
  the assertion prints the observed values in the golden's layout; a
  deliberate change re-captures the file by pasting them in and says so.

Each mode reads its own run record, ``<mode>.run.json`` beside its
result file. The ``plan`` manifest field is execution strategy, not
configuration, so both records carry one config fingerprint.

The normalized payloads and a ``spmm_delta.json`` report (per-mode spmm
calls, absolute and relative reduction, ``plan.*`` term-store counters)
are persisted under ``benchmarks/results/plan_smoke/`` so the
``bench-plan`` CI job can upload them as artifacts for post-mortem
diffing.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.bench.__main__ import main as bench_main
from repro.bench.io import canonical_payload, deterministic_counters, load_rows

from .conftest import RESULTS_DIR, emit, env_epochs, read_run_record, run_once

EPOCHS_DEFAULT = 3
PLAN_DIR = RESULTS_DIR / "plan_smoke"
GOLDEN = Path(__file__).parent / "golden" / "plan_smoke.json"
MODES = ("planned", "unplanned")
#: Chosen for chain overlap: three monomial-adjacency filters plus two
#: Chebyshev-recurrence filters (chebinterp subclasses chebyshev).
FILTERS = ("ppr", "monomial_var", "chebyshev", "chebinterp", "hk")
DATASETS = ("cora", "citeseer")
#: The acceptance bar: planned ops.spmm.calls must drop by at least this
#: fraction relative to --no-plan on this slice.
MIN_SPMM_REDUCTION = 0.40


def _one_cli_run(mode: str, epochs: int) -> int:
    args = [
        "efficiency", "--datasets", *DATASETS,
        "--filters", *FILTERS, "--schemes", "mini_batch",
        "--epochs", str(epochs),
        "--output", str(PLAN_DIR / f"{mode}.json"),
        "--trace", str(PLAN_DIR / f"{mode}.jsonl"),
    ]
    if mode == "unplanned":
        args.append("--no-plan")
    return bench_main(args)


def _plan_smoke(epochs: int) -> dict:
    if PLAN_DIR.exists():
        shutil.rmtree(PLAN_DIR)
    PLAN_DIR.mkdir(parents=True)

    exit_codes = {mode: _one_cli_run(mode, epochs) for mode in MODES}

    payloads, rows = {}, {}
    for mode in MODES:
        rows[mode] = load_rows(PLAN_DIR / f"{mode}.json")
        payload = canonical_payload(rows[mode])
        payloads[mode] = payload
        (PLAN_DIR / f"payload_{mode}.json").write_bytes(payload)

    records, counters = {}, {}
    for mode in MODES:
        records[mode] = read_run_record(PLAN_DIR / f"{mode}.json")["measured"]
        counters[mode] = records[mode]["metrics"].get("counters", {})

    spmm = {mode: counters[mode].get("ops.spmm.calls", 0) for mode in MODES}
    reduction = (1.0 - spmm["planned"] / spmm["unplanned"]
                 if spmm["unplanned"] else 0.0)
    delta = {
        "spmm_calls": spmm,
        "spmm_avoided": counters["planned"].get("plan.spmm_avoided", 0),
        "reduction": round(reduction, 6),
        "min_reduction": MIN_SPMM_REDUCTION,
        "plan_counters": {name: value
                          for name, value in sorted(counters["planned"].items())
                          if name.startswith("plan.")},
    }
    (PLAN_DIR / "spmm_delta.json").write_text(json.dumps(delta, indent=1))

    observed = {
        "counters": {mode: deterministic_counters(counters[mode])
                     for mode in MODES},
        "device_bytes": {f"{row['dataset']}/{row['filter']}":
                         row["device_bytes"] for row in rows["planned"]},
    }

    return {
        "exit_codes": exit_codes,
        "payloads": payloads,
        "records": records,
        "counters": counters,
        "delta": delta,
        "observed": observed,
    }


def test_plan_smoke_gate(benchmark):
    epochs = env_epochs(EPOCHS_DEFAULT)
    report = run_once(benchmark, _plan_smoke, epochs)
    delta = report["delta"]

    emit([{"metric": "ops.spmm.calls",
           **{mode: delta["spmm_calls"][mode] for mode in MODES},
           "reduction": f"{delta['reduction']:.1%}"}]
         + [{"metric": name, "planned": value, "unplanned": "-",
             "reduction": "-"}
            for name, value in delta["plan_counters"].items()],
         title="planner spmm reduction, planned vs --no-plan")

    # Both CLI invocations completed and both records parsed (reading
    # a missing or torn one raises).
    assert report["exit_codes"] == {mode: 0 for mode in MODES}

    # --- bit-identity: planned results byte-identical to unplanned.
    assert report["payloads"]["unplanned"], \
        "unplanned run produced an empty payload"
    assert report["payloads"]["planned"] == report["payloads"]["unplanned"], (
        "the planner changed numerics; diff "
        f"{PLAN_DIR / 'payload_planned.json'} against "
        f"{PLAN_DIR / 'payload_unplanned.json'}")

    # --- the planner actually engaged and the gate is not vacuous.
    assert delta["spmm_calls"]["unplanned"] > 0, \
        "reduction gate is vacuous: no spmm ops were counted"
    assert delta["plan_counters"].get("plan.terms.hit", 0) > 0, \
        "planner never served a shared term (plan.terms.hit == 0)"
    assert delta["spmm_avoided"] > 0

    # --- spmm reduction: the headline acceptance criterion.
    assert delta["reduction"] >= MIN_SPMM_REDUCTION, (
        f"planned run avoided only {delta['reduction']:.1%} of spmm calls "
        f"(gate: {MIN_SPMM_REDUCTION:.0%}); see "
        f"{PLAN_DIR / 'spmm_delta.json'}")

    # --- record annotation: one config, two execution strategies.
    planned, unplanned = (report["records"]["planned"],
                          report["records"]["unplanned"])
    assert planned["config_fingerprint"] \
        == unplanned["config_fingerprint"], \
        "--no-plan leaked into the config fingerprint"

    # --- exact counters and device bytes against the committed golden.
    if epochs == EPOCHS_DEFAULT:
        observed = report["observed"]
        assert observed == json.loads(GOLDEN.read_text()), (
            f"counters or device_bytes differ from {GOLDEN}; observed:\n"
            + json.dumps(observed, indent=1, sort_keys=True))
