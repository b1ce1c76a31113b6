#!/usr/bin/env python3
"""Fold --obs-json sidecars into the EXPERIMENTS.md trajectory table.

Every bench harness writes a JSON sidecar (see docs/OBSERVABILITY.md,
"Sidecar format") when run with --obs-json=<path>. This script reads one
or more sidecars, aggregates the per-stage span timings, and renders a
markdown table of wall-time per pipeline stage per harness. With
--update it splices the table into the target markdown file between the

    <!-- obs-trajectory:begin -->
    <!-- obs-trajectory:end -->

markers (the rest of the file is left untouched), so the EXPERIMENTS.md
trajectory section can be regenerated from fresh runs:

    ./build/bench/fig18_scaling_iters --obs-json=/tmp/fig18.json
    ./build/bench/fig19_scaling_chares --obs-json=/tmp/fig19.json
    python3 tools/obs_to_table.py /tmp/fig18.json /tmp/fig19.json \
        --update EXPERIMENTS.md

Efficiency artifacts (--eff-json, schema "logstruct-effmetrics/v1",
docs/METRICS.md) are recognized by their schema string and folded into a
separate per-suite efficiency table, spliced between the

    <!-- eff-metrics:begin -->
    <!-- eff-metrics:end -->

markers. Concurrency artifacts (--concurrency-json, schema
"logstruct-concurrency/v1", docs/CAUSALITY.md) are likewise recognized
by schema and folded into a per-suite concurrency table between the

    <!-- concurrency:begin -->
    <!-- concurrency:end -->

markers. Sidecars, efficiency, and concurrency artifacts can be mixed
freely on one command line:

    ./build/examples/efficiency_compare --eff-json=/tmp/eff.json
    ./build/examples/trace_inspect --concurrency-json=/tmp/conc.json
    python3 tools/obs_to_table.py /tmp/eff.json /tmp/conc.json \
        --update EXPERIMENTS.md

With --check it validates each document instead of rendering a table,
dispatching on the schema string. A sidecar's `schema` must be exactly
"logstruct-obs-sidecar/v4", the only schema the harnesses write
(src/util/obs_flags.cpp). It must have the shape (program, stages,
spans, metrics), carry `peak_rss_kb`, a well-formed `recovery` object
({"total": N, "counters": {...}} with total equal to the counter sum --
the fault-tolerant-ingestion repair counters, see docs/ROBUSTNESS.md)
and the live-telemetry blocks (a `sampler` time series with
non-decreasing timestamps and a `flight_recorder` reference,
docs/OBSERVABILITY.md "Live telemetry"), and `dropped_spans` must be 0
(a nonzero count means the tracer's span buffer overflowed and the
trajectory table would silently undercount). When a sidecar's sampler
ring holds samples, the trajectory table gains a closing row with the
peak / mean sampled RSS per harness.
A trace_fsck container-health report ("logstruct-fsck-report/v2",
docs/ROBUSTNESS.md) must carry a clean/degraded/unusable verdict, a
per-column block census whose rows sum to their block counts and to
the top-level blocks_total/blocks_bad, and a well-formed
RecoveryReport under `recovery` -- and a "clean" verdict must not
coexist with bad blocks or recovery diagnostics.
An effmetrics document must carry program/trace/suites, per-suite
summaries for all five POP metrics, per-window rows matching
num_windows, and every efficiency value inside [0, 1]. A concurrency
document must carry program/trace/phases/suites, a self-consistent
whole-trace pair census (pairs_total == count*(count-1)/2,
commuting <= unordered <= total), per-window rows matching num_windows
with commuting_pairs <= unordered_pairs, and -- for the phases-sliced
suite, whose rows are per-phase concurrency degrees -- a degree sum
equal to exactly twice the census (every unordered pair contributes one
degree at each endpoint). Exit is nonzero on any violation -- CI runs
this on every uploaded artifact.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import sys

BEGIN = "<!-- obs-trajectory:begin -->"
END = "<!-- obs-trajectory:end -->"
EFF_BEGIN = "<!-- eff-metrics:begin -->"
EFF_END = "<!-- eff-metrics:end -->"
CONC_BEGIN = "<!-- concurrency:begin -->"
CONC_END = "<!-- concurrency:end -->"

EFF_SCHEMA = "logstruct-effmetrics/v1"
CONC_SCHEMA = "logstruct-concurrency/v1"
FSCK_SCHEMA = "logstruct-fsck-report/v2"
SIDECAR_SCHEMA = "logstruct-obs-sidecar/v4"
EFF_METRICS = (
    "parallel",
    "load_balance",
    "communication",
    "serialization",
    "transfer",
)

# Pipeline taxonomy order (docs/OBSERVABILITY.md); unknown stages sort
# after these, alphabetically.
STAGE_ORDER = [
    "sim/charm/run",
    "sim/mpi/run",
    "trace/ingest",
    "order/extract_structure",
    "order/find_phases",
    "order/initial",
    "order/dependency_merge",
    "order/repair",
    "order/neighbor_serial",
    "order/infer_source_order",
    "order/enforce_leap_property",
    "order/enforce_chare_paths",
    "order/finalize",
    "order/reorder",
    "order/stepping",
]


def load_sidecar(path):
    with open(path) as f:
        doc = json.load(f)
    program = os.path.basename(doc.get("program", path))
    stages = {
        name: (entry.get("count", 0), entry.get("total_ns", 0))
        for name, entry in doc.get("stages", {}).items()
    }
    sampler = doc.get("sampler")
    rss = []
    if isinstance(sampler, dict):
        rss = [
            s["rss_kb"]
            for s in sampler.get("samples", [])
            if isinstance(s, dict) and isinstance(s.get("rss_kb"), int)
        ]
    return program, stages, doc.get("dropped_spans", 0), rss


def stage_key(name):
    try:
        return (0, STAGE_ORDER.index(name))
    except ValueError:
        return (1, name)


def render_table(runs):
    programs = [program for program, _, _, _ in runs]
    all_stages = sorted(
        {s for _, stages, _, _ in runs for s in stages}, key=stage_key
    )
    header = "| stage | " + " | ".join(
        f"{p} (ms, calls)" for p in programs
    ) + " |"
    sep = "|---" * (len(programs) + 1) + "|"
    lines = [header, sep]
    for stage in all_stages:
        cells = []
        for _, stages, _, _ in runs:
            if stage in stages:
                count, total_ns = stages[stage]
                cells.append(f"{total_ns / 1e6:.2f} ({count})")
            else:
                cells.append("—")
        lines.append("| `" + stage + "` | " + " | ".join(cells) + " |")
    # Live-sampler memory row (v4 sidecars run with --obs-period-ms):
    # peak / mean of the sampled RSS series, in MiB.
    if any(rss for _, _, _, rss in runs):
        cells = []
        for _, _, _, rss in runs:
            if rss:
                peak = max(rss) / 1024.0
                mean = sum(rss) / len(rss) / 1024.0
                cells.append(f"{peak:.1f} / {mean:.1f}")
            else:
                cells.append("—")
        lines.append(
            "| _sampled rss (peak/mean MiB)_ | " + " | ".join(cells) + " |"
        )
    dropped = sum(d for _, _, d, _ in runs)
    lines.append("")
    lines.append(
        f"_Generated by `tools/obs_to_table.py` from {len(runs)} "
        f"sidecar(s); dropped spans: {dropped}._"
    )
    return "\n".join(lines)


def read_schema(path):
    """The document's schema string, or "" when unreadable/absent."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return ""
    if not isinstance(doc, dict):
        return ""
    return doc.get("schema", "")


def render_eff_table(paths):
    """Markdown efficiency table, one row per (program, suite mode)."""
    lines = [
        "| program | mode | windows | degraded | parallel "
        "(mean / min) | load bal (min @win) | comm (mean) | "
        "serial (mean) | transfer (mean) |",
        "|---" * 9 + "|",
    ]
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        program = os.path.basename(doc.get("program", path))
        for suite in doc.get("suites", []):
            s = suite.get("summary", {})

            def m(name, key, s=s):
                return s.get(name, {}).get(key, float("nan"))

            lines.append(
                "| `{}` | {} | {} | {} | {:.3f} / {:.3f} | "
                "{:.3f} @{} | {:.3f} | {:.3f} | {:.3f} |".format(
                    program,
                    suite.get("mode", "?"),
                    suite.get("num_windows", 0),
                    suite.get("degraded_windows", 0),
                    m("parallel", "mean"),
                    m("parallel", "min"),
                    m("load_balance", "min"),
                    m("load_balance", "min_window"),
                    m("communication", "mean"),
                    m("serialization", "mean"),
                    m("transfer", "mean"),
                )
            )
    lines.append("")
    lines.append(
        f"_Generated by `tools/obs_to_table.py` from {len(paths)} "
        f"efficiency artifact(s) (schema `{EFF_SCHEMA}`)._"
    )
    return "\n".join(lines)


def render_conc_table(paths):
    """Markdown concurrency table, one row per (program, suite mode)."""
    lines = [
        "| program | phases | unordered / total pairs | commuting | "
        "mode | windows | peak active | peak unordered |",
        "|---" * 8 + "|",
    ]
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        program = os.path.basename(doc.get("program", path))
        census = doc.get("phases", {})
        for suite in doc.get("suites", []):
            windows = suite.get("windows", [])
            peak_active = max(
                (w.get("phases_active", 0) for w in windows), default=0
            )
            peak_unordered = max(
                (w.get("unordered_pairs", 0) for w in windows), default=0
            )
            lines.append(
                "| `{}` | {} | {} / {} | {} | {} | {} | {} | {} |".format(
                    program,
                    census.get("count", 0),
                    census.get("pairs_unordered", 0),
                    census.get("pairs_total", 0),
                    census.get("pairs_commuting", 0),
                    suite.get("mode", "?"),
                    suite.get("num_windows", 0),
                    peak_active,
                    peak_unordered,
                )
            )
    lines.append("")
    lines.append(
        f"_Generated by `tools/obs_to_table.py` from {len(paths)} "
        f"concurrency artifact(s) (schema `{CONC_SCHEMA}`; phases-mode "
        "window counts are per-phase concurrency degrees)._"
    )
    return "\n".join(lines)


def check_concurrency(doc):
    """Validate a logstruct-concurrency/v1 document; return problems."""
    problems = []
    if not isinstance(doc.get("program"), str):
        problems.append("missing string key: program")
    trace = doc.get("trace")
    if not isinstance(trace, dict):
        problems.append("missing `trace` object")
    else:
        for key in ("events", "procs", "end_ns", "degraded_chares"):
            if not isinstance(trace.get(key), int):
                problems.append(f"trace.{key} is not an integer")
    census = doc.get("phases")
    count = total = unordered = commuting = None
    if not isinstance(census, dict):
        problems.append("missing `phases` census object")
    else:
        for key in (
            "count",
            "pairs_total",
            "pairs_unordered",
            "pairs_commuting",
        ):
            if not isinstance(census.get(key), int) or census[key] < 0:
                problems.append(
                    f"phases.{key} is not a non-negative integer"
                )
        count = census.get("count")
        total = census.get("pairs_total")
        unordered = census.get("pairs_unordered")
        commuting = census.get("pairs_commuting")
        if isinstance(count, int) and isinstance(total, int):
            if total != count * (count - 1) // 2:
                problems.append(
                    f"phases.pairs_total = {total} but count = {count} "
                    f"implies {count * (count - 1) // 2}"
                )
        if (
            isinstance(total, int)
            and isinstance(unordered, int)
            and isinstance(commuting, int)
            and not (commuting <= unordered <= total)
        ):
            problems.append(
                "census not nested: expected pairs_commuting <= "
                f"pairs_unordered <= pairs_total, got {commuting} / "
                f"{unordered} / {total}"
            )
    suites = doc.get("suites")
    if not isinstance(suites, list) or not suites:
        return problems + ["missing non-empty `suites` array"]
    for i, suite in enumerate(suites):
        where = f"suites[{i}]"
        mode = suite.get("mode")
        if mode not in ("time_bins", "phases"):
            problems.append(f"{where}.mode is not time_bins|phases")
        if mode == "time_bins" and not isinstance(
            suite.get("bin_width_ns"), int
        ):
            problems.append(f"{where} (time_bins) missing bin_width_ns")
        windows = suite.get("windows")
        if not isinstance(windows, list):
            problems.append(f"{where}.windows is not an array")
            continue
        if suite.get("num_windows") != len(windows):
            problems.append(
                f"{where}.num_windows != len(windows) "
                f"({suite.get('num_windows')} vs {len(windows)})"
            )
        degraded = suite.get("degraded_windows")
        if not isinstance(degraded, int) or not (
            0 <= degraded <= len(windows)
        ):
            problems.append(f"{where}.degraded_windows out of range")
        degree_sum = 0
        for j, win in enumerate(windows):
            if not isinstance(win, dict):
                problems.append(f"{where}.windows[{j}] is not an object")
                continue
            for key in (
                "begin_ns",
                "end_ns",
                "phases_active",
                "unordered_pairs",
                "commuting_pairs",
            ):
                if not isinstance(win.get(key), int) or win[key] < 0:
                    problems.append(
                        f"{where}.windows[{j}].{key} is not a "
                        "non-negative integer"
                    )
            u = win.get("unordered_pairs")
            c = win.get("commuting_pairs")
            if isinstance(u, int) and isinstance(c, int) and c > u:
                problems.append(
                    f"{where}.windows[{j}]: commuting_pairs = {c} "
                    f"exceeds unordered_pairs = {u}"
                )
            if isinstance(u, int):
                degree_sum += u
        # Phase-sliced windows report per-phase concurrency degrees;
        # every unordered pair contributes one degree at each endpoint,
        # so over a full one-window-per-phase suite the sum is exactly
        # twice the census.
        if (
            mode == "phases"
            and isinstance(count, int)
            and isinstance(unordered, int)
            and len(windows) == count
            and degree_sum != 2 * unordered
        ):
            problems.append(
                f"{where}: phase degree sum = {degree_sum} but census "
                f"has {unordered} unordered pairs (expected "
                f"{2 * unordered})"
            )
    return problems


def check_effmetrics(doc):
    """Validate a logstruct-effmetrics/v1 document; return problems."""
    problems = []
    if not isinstance(doc.get("program"), str):
        problems.append("missing string key: program")
    trace = doc.get("trace")
    if not isinstance(trace, dict):
        problems.append("missing `trace` object")
    else:
        for key in ("events", "procs", "end_ns", "degraded_chares"):
            if not isinstance(trace.get(key), int):
                problems.append(f"trace.{key} is not an integer")
    suites = doc.get("suites")
    if not isinstance(suites, list) or not suites:
        return problems + ["missing non-empty `suites` array"]
    for i, suite in enumerate(suites):
        where = f"suites[{i}]"
        mode = suite.get("mode")
        if mode not in ("time_bins", "phases"):
            problems.append(f"{where}.mode is not time_bins|phases")
        if mode == "time_bins" and not isinstance(
            suite.get("bin_width_ns"), int
        ):
            problems.append(f"{where} (time_bins) missing bin_width_ns")
        windows = suite.get("windows")
        if not isinstance(windows, list):
            problems.append(f"{where}.windows is not an array")
            continue
        if suite.get("num_windows") != len(windows):
            problems.append(
                f"{where}.num_windows != len(windows) "
                f"({suite.get('num_windows')} vs {len(windows)})"
            )
        degraded = suite.get("degraded_windows")
        if not isinstance(degraded, int) or not (
            0 <= degraded <= len(windows)
        ):
            problems.append(f"{where}.degraded_windows out of range")
        summary = suite.get("summary")
        if not isinstance(summary, dict):
            problems.append(f"{where} missing summary object")
        else:
            for name in EFF_METRICS:
                entry = summary.get(name)
                if not isinstance(entry, dict) or not all(
                    k in entry for k in ("min", "mean", "min_window")
                ):
                    problems.append(
                        f"{where}.summary.{name} missing min/mean/"
                        "min_window"
                    )
        for j, win in enumerate(windows):
            if not isinstance(win, dict):
                problems.append(f"{where}.windows[{j}] is not an object")
                continue
            for key in ("begin_ns", "end_ns", "events", "procs"):
                if not isinstance(win.get(key), int):
                    problems.append(
                        f"{where}.windows[{j}].{key} is not an integer"
                    )
            for name in EFF_METRICS:
                v = win.get(name)
                if not isinstance(v, (int, float)) or not (
                    0.0 <= v <= 1.0
                ):
                    problems.append(
                        f"{where}.windows[{j}].{name} not in [0, 1]"
                    )
    return problems


def check_recovery(recovery):
    """Validate a sidecar's `recovery` object; return problems."""
    if not isinstance(recovery, dict):
        return ["sidecar missing `recovery` object"]
    problems = []
    total = recovery.get("total")
    counters = recovery.get("counters")
    if not isinstance(total, int) or total < 0:
        problems.append("recovery.total is not a non-negative integer")
    if not isinstance(counters, dict):
        problems.append("recovery.counters is not an object")
        return problems
    csum = 0
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            problems.append(
                f"recovery counter {name} is not a non-negative integer"
            )
        else:
            csum += value
    if isinstance(total, int) and not problems and csum != total:
        problems.append(
            f"recovery.total = {total} but counters sum to {csum}"
        )
    return problems


SAMPLE_KEYS = (
    "t_ms",
    "rss_kb",
    "alloc_bytes",
    "alloc_count",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_hit_rate_bp",
    "progress_done",
    "progress_total",
)


def check_sampler(sampler):
    """Validate a sidecar's `sampler` time series; return problems."""
    if not isinstance(sampler, dict):
        return ["sidecar missing `sampler` object"]
    problems = []
    for key in ("period_ms", "capacity", "total"):
        v = sampler.get(key)
        if not isinstance(v, int) or v < 0:
            problems.append(
                f"sampler.{key} is not a non-negative integer"
            )
    samples = sampler.get("samples")
    if not isinstance(samples, list):
        return problems + ["sampler.samples is not an array"]
    total = sampler.get("total")
    if isinstance(total, int) and len(samples) > total:
        problems.append(
            f"sampler ring holds {len(samples)} samples but total "
            f"claims only {total}"
        )
    prev_t = None
    for i, s in enumerate(samples):
        if not isinstance(s, dict):
            problems.append(f"sampler.samples[{i}] is not an object")
            continue
        for key in SAMPLE_KEYS:
            if not isinstance(s.get(key), int):
                problems.append(
                    f"sampler.samples[{i}].{key} is not an integer"
                )
        t = s.get("t_ms")
        if isinstance(t, int):
            if prev_t is not None and t < prev_t:
                problems.append(
                    f"sampler.samples[{i}].t_ms = {t} goes backwards "
                    f"(previous sample at {prev_t})"
                )
            prev_t = t
    return problems


def check_flightrec(rec):
    """Validate a sidecar's `flight_recorder` reference block."""
    if not isinstance(rec, dict):
        return ["sidecar missing `flight_recorder` object"]
    problems = []
    if not isinstance(rec.get("armed"), bool):
        problems.append("flight_recorder.armed is not a boolean")
    if not isinstance(rec.get("path"), str):
        problems.append("flight_recorder.path is not a string")
    if rec.get("armed") is True and not rec.get("path"):
        problems.append("flight_recorder armed but path is empty")
    cap = rec.get("ring_capacity")
    if not isinstance(cap, int) or cap <= 0:
        problems.append(
            "flight_recorder.ring_capacity is not a positive integer"
        )
    dropped = rec.get("ring_dropped")
    if not isinstance(dropped, int) or dropped < 0:
        problems.append(
            "flight_recorder.ring_dropped is not a non-negative integer"
        )
    return problems


def check_fsck(doc):
    """Validate a trace_fsck container-health report (FSCK_SCHEMA)."""
    problems = []
    if not isinstance(doc.get("path"), str):
        problems.append("fsck report missing string `path`")
    verdict = doc.get("verdict")
    if verdict not in ("clean", "degraded", "unusable"):
        problems.append(f"fsck verdict {verdict!r} is not clean/degraded/unusable")
    if not isinstance(doc.get("footer_valid"), bool):
        problems.append("fsck report `footer_valid` is not a boolean")
    for key in ("version", "blocks_total", "blocks_bad"):
        v = doc.get(key)
        if not isinstance(v, int) or v < 0:
            problems.append(f"fsck report `{key}` is not a non-negative integer")
    columns = doc.get("columns")
    if not isinstance(columns, list):
        problems.append("fsck report `columns` is not a list")
        columns = []
    total = bad = 0
    for i, col in enumerate(columns):
        if not isinstance(col, dict):
            problems.append(f"columns[{i}] is not an object")
            continue
        counts = {}
        for key in ("id", "blocks", "ok", "checksum_mismatch", "unreadable"):
            v = col.get(key)
            if not isinstance(v, int) or v < 0:
                problems.append(
                    f"columns[{i}].{key} is not a non-negative integer"
                )
                v = 0
            counts[key] = v
        census = (counts["ok"] + counts["checksum_mismatch"]
                  + counts["unreadable"])
        if census != counts["blocks"]:
            problems.append(
                f"columns[{i}] census sums to {census}, "
                f"not blocks = {counts['blocks']}"
            )
        total += counts["blocks"]
        bad += counts["checksum_mismatch"] + counts["unreadable"]
    if isinstance(doc.get("blocks_total"), int) and total != doc["blocks_total"]:
        problems.append(
            f"blocks_total = {doc['blocks_total']} but columns sum to {total}"
        )
    if isinstance(doc.get("blocks_bad"), int) and bad != doc["blocks_bad"]:
        problems.append(
            f"blocks_bad = {doc['blocks_bad']} but columns sum to {bad}"
        )
    if verdict == "clean" and bad:
        problems.append(f"verdict clean but {bad} bad block(s) in the census")
    # `recovery` is a full RecoveryReport (counts keyed by diag code,
    # plus the capped diagnostic list) -- a different shape from the
    # sidecar's {"total", "counters"} summary that check_recovery sees.
    recovery = doc.get("recovery")
    if not isinstance(recovery, dict):
        problems.append("fsck report missing `recovery` object")
        return problems
    rtotal = recovery.get("total")
    if not isinstance(rtotal, int) or rtotal < 0:
        problems.append("recovery.total is not a non-negative integer")
    if recovery.get("worst") not in ("note", "warning", "error", "fatal"):
        problems.append(
            f"recovery.worst {recovery.get('worst')!r} is not a severity"
        )
    counts = recovery.get("counts")
    if not isinstance(counts, dict):
        problems.append("recovery.counts is not an object")
    else:
        csum = sum(v for v in counts.values() if isinstance(v, int))
        for name, v in counts.items():
            if not isinstance(v, int) or v < 0:
                problems.append(
                    f"recovery count {name} is not a non-negative integer"
                )
        if isinstance(rtotal, int) and csum != rtotal:
            problems.append(
                f"recovery.total = {rtotal} but counts sum to {csum}"
            )
    if not isinstance(recovery.get("diagnostics"), list):
        problems.append("recovery.diagnostics is not a list")
    if verdict == "clean" and isinstance(rtotal, int) and rtotal > 0:
        problems.append("verdict clean but recovery diagnostics are present")
    return problems


def check_sidecar(path):
    """Validate one sidecar; return a list of problem strings."""
    problems = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable: {e}"]
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]

    if doc.get("schema") == EFF_SCHEMA:
        return check_effmetrics(doc)
    if doc.get("schema") == CONC_SCHEMA:
        return check_concurrency(doc)
    if doc.get("schema") == FSCK_SCHEMA:
        return check_fsck(doc)

    for key, typ in (
        ("program", str),
        ("stages", dict),
        ("spans", list),
        ("metrics", dict),
    ):
        if key not in doc:
            problems.append(f"missing key: {key}")
        elif not isinstance(doc[key], typ):
            problems.append(f"key {key} is not a {typ.__name__}")

    schema = doc.get("schema")
    if schema != SIDECAR_SCHEMA:
        problems.append(f"unknown schema: {schema!r}")
    else:
        if not isinstance(doc.get("peak_rss_kb"), int):
            problems.append("sidecar missing integer peak_rss_kb")
        problems.extend(check_recovery(doc.get("recovery")))
        problems.extend(check_sampler(doc.get("sampler")))
        problems.extend(check_flightrec(doc.get("flight_recorder")))

    for name, entry in (doc.get("stages") or {}).items():
        if not isinstance(entry, dict) or "total_ns" not in entry:
            problems.append(f"stage {name} has no total_ns")

    dropped = doc.get("dropped_spans", 0)
    if not isinstance(dropped, int):
        problems.append("dropped_spans is not an integer")
    elif dropped > 0:
        problems.append(
            f"dropped_spans = {dropped} (tracer span buffer overflowed; "
            "stage totals undercount)"
        )
    return problems


def check_all(paths):
    bad = 0
    for path in paths:
        problems = check_sidecar(path)
        if problems:
            bad += 1
            print(f"{path}: FAIL")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"{path}: ok")
    return 1 if bad else 0


def splice(path, table, begin_marker=BEGIN, end_marker=END):
    with open(path) as f:
        text = f.read()
    begin = text.find(begin_marker)
    end = text.find(end_marker)
    if begin < 0 or end < 0 or end < begin:
        sys.exit(
            f"error: {path} has no {begin_marker} ... {end_marker} "
            "block to update"
        )
    new = (
        text[: begin + len(begin_marker)] + "\n" + table + "\n" + text[end:]
    )
    with open(path, "w") as f:
        f.write(new)
    print(f"updated {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sidecars", nargs="+", help="--obs-json output files")
    ap.add_argument(
        "--update",
        metavar="MD",
        help="splice the table into this markdown file between the "
        "obs-trajectory markers instead of printing it",
    )
    ap.add_argument(
        "--check",
        action="store_true",
        help="validate document schemas (sidecar v4, effmetrics, "
        "concurrency, fsck reports) and fail on dropped spans instead "
        "of rendering a table",
    )
    args = ap.parse_args()

    if args.check:
        sys.exit(check_all(args.sidecars))

    eff_paths = [p for p in args.sidecars if read_schema(p) == EFF_SCHEMA]
    conc_paths = [
        p for p in args.sidecars if read_schema(p) == CONC_SCHEMA
    ]
    obs_paths = [
        p
        for p in args.sidecars
        if p not in eff_paths and p not in conc_paths
    ]

    if obs_paths:
        table = render_table([load_sidecar(p) for p in obs_paths])
        if args.update:
            splice(args.update, table)
        else:
            print(table)
    if eff_paths:
        eff_table = render_eff_table(eff_paths)
        if args.update:
            splice(args.update, eff_table, EFF_BEGIN, EFF_END)
        else:
            print(eff_table)
    if conc_paths:
        conc_table = render_conc_table(conc_paths)
        if args.update:
            splice(args.update, conc_table, CONC_BEGIN, CONC_END)
        else:
            print(conc_table)


if __name__ == "__main__":
    main()
