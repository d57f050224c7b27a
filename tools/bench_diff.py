#!/usr/bin/env python3
"""Compares e2ebench runs of a parent and a change, workload by workload.

Usage:

    tools/bench_diff.py --parent P1.out P2.out ... --change C1.out C2.out ...
    tools/bench_diff.py --self-test

Each input file holds the standard output of one or more
`e2ebench/run.py` runs. A run is its JSON result line
(`{"correct": ..., "metrics": {...}}`), labelled by the line before it that
names the workload and seed: `workload <name> seed <n>: ...` for a timed
run, `trace: ... written to .../<name>-seed<n>.json` for a traced one.
Runs of one workload pair up by seed (else by order). For every workload
and metric the tool prints a Markdown table row: parent and change median
with min-max, the change/parent ratio of the medians, and how many pairs
the change won. The metric directions and the end-to-end bounds come from
BENCHMARK.json, which the tool only reads.

Exit status: 1 when an end-to-end median of the change is worse than the
parent's by more than its bound, or the change fails a larger share of its
requests; 2 on unusable input; else 0.
"""
import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LINES = (re.compile(r"^workload (\S+) seed (\S+):"),
             re.compile(r"^trace: .* written to .*/([^/\s]+)-seed(\S+)\.json$"))


def parse_runs(text):
    """Returns [(workload, seed, result_dict)] in file order."""
    runs = []
    workload, seed = None, None
    for line in text.splitlines():
        m = next((m for m in (r.match(line) for r in RUN_LINES) if m), None)
        if m:
            workload, seed = m.group(1), m.group(2)
            continue
        line = line.strip()
        if not line.startswith("{") or '"metrics"' not in line:
            continue
        result = json.loads(line)
        if workload is None:
            raise ValueError("result line without a preceding line naming "
                             "its workload and seed")
        runs.append((workload, seed, result))
        workload, seed = None, None
    return runs


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.extend(parse_runs(f.read()))
    return runs


def by_workload(runs):
    out = {}
    for workload, seed, result in runs:
        out.setdefault(workload, []).append((seed, result))
    return out


def pair_up(parent, change):
    """Pairs runs by seed when every seed matches, else by position."""
    pseeds = [s for s, _ in parent]
    cseeds = [s for s, _ in change]
    if len(set(pseeds)) == len(pseeds) and sorted(pseeds) == sorted(cseeds):
        cmap = dict(change)
        return [(p, cmap[s]) for s, p in parent]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent` (<0: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def fmt(x):
    return f"{x:.4g}"


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for _, r in runs)
    failed = sum(r.get("failed", 0) for _, r in runs)
    return failed / attempted if attempted else 0.0


def compare(bench, parent_runs, change_runs, out):
    """Writes the table to `out`; returns the list of gate violations."""
    directions = {m["name"]: m["better"]
                  for m in bench.get("end_to_end", []) + bench.get(
                      "per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    parent = by_workload(parent_runs)
    change = by_workload(change_runs)
    violations = []
    out.write("| workload | metric | parent median [min–max] | "
              "change median [min–max] | change/parent | change wins |\n")
    out.write("|---|---|---|---|---|---|\n")
    for workload in sorted(set(parent) & set(change)):
        pairs = pair_up(parent[workload], change[workload])
        names = [n for n in directions
                 if all(n in p["metrics"] and n in c["metrics"]
                        for p, c in pairs)]
        for name in names:
            better = directions[name]
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            pm, cm = statistics.median(pv), statistics.median(cv)
            wins = sum(1 for a, b in zip(pv, cv) if worse_by(a, b, better) < 0)
            ratio = cm / pm if pm else float("nan")
            out.write(f"| {workload} | {name} | {fmt(pm)} "
                      f"[{fmt(min(pv))}–{fmt(max(pv))}] | {fmt(cm)} "
                      f"[{fmt(min(cv))}–{fmt(max(cv))}] | {ratio:.3f} | "
                      f"{wins}/{len(pairs)} |\n")
            if name in bounds and worse_by(pm, cm, better) > bounds[name]:
                violations.append(
                    f"{workload} {name}: median {fmt(cm)} vs parent "
                    f"{fmt(pm)} is worse by more than its bound "
                    f"{bounds[name]}")
        pf = failed_share(parent[workload])
        cf = failed_share(change[workload])
        out.write(f"| {workload} | failed_ratio | {fmt(pf)} | {fmt(cf)} | "
                  f"– | – |\n")
        if cf > pf:
            violations.append(f"{workload} failed_ratio: {fmt(cf)} vs parent "
                              f"{fmt(pf)}")
    for workload in sorted(set(parent) ^ set(change)):
        violations.append(f"{workload}: runs on one side only")
    return violations


def self_test():
    """Checks the parser, the pairing and the gate on synthetic runs."""
    import io
    bench = {"end_to_end": [
        {"name": "latency_p50_s", "better": "lower", "bound": 0.24},
        {"name": "volumes_per_s", "better": "higher", "bound": 0.24}],
        "per_layer": [{"name": "filter.busy_s", "better": "lower"}]}

    def run(workload, seed, p50, vps, failed=0, busy=None):
        metrics = {"latency_p50_s": {"value": p50, "unit": "s"},
                   "volumes_per_s": {"value": vps, "unit": "1/s"}}
        if busy is not None:
            metrics["filter.busy_s"] = {"value": busy, "unit": "s"}
        result = {"correct": failed == 0, "attempted": 40, "failed": failed,
                  "metrics": metrics}
        return (f"table line\nworkload {workload} seed {seed}: 40 timed\n"
                f"{{\"host\":{{}}}}\n{json.dumps(result)}\n")

    parent = parse_runs(run("w", 1, 0.50, 10.0, busy=0.4) +
                        run("w", 2, 0.52, 9.8, busy=0.5))
    assert [(w, s) for w, s, _ in parent] == [("w", "1"), ("w", "2")]
    traced = parse_runs("trace: 601 spans written to /b/traces/w_x-seed41.json"
                        "\n" + run("w", 1, 0.5, 1.0).splitlines()[-1])
    assert [(w, s) for w, s, _ in traced] == [("w_x", "41")], traced
    # Seeds pair across orders; a faster change wins both pairs.
    change = parse_runs(run("w", 2, 0.30, 15.0, busy=0.2) +
                        run("w", 1, 0.28, 16.0, busy=0.1))
    out = io.StringIO()
    assert compare(bench, parent, change, out) == []
    table = out.getvalue()
    assert "| w | latency_p50_s | 0.51 [0.5–0.52] | 0.29 [0.28–0.3] |" \
        in table, table
    assert "| 2/2 |" in table and "filter.busy_s" in table, table
    # Within the bound: 20% slower passes, 30% slower fails.
    within = parse_runs(run("w", 1, 0.60, 10.0) + run("w", 2, 0.624, 9.8))
    assert compare(bench, parent, within, io.StringIO()) == []
    slower = parse_runs(run("w", 1, 0.65, 10.0) + run("w", 2, 0.676, 9.8))
    assert len(compare(bench, parent, slower, io.StringIO())) == 1
    # A higher-is-better metric falling past its bound fails too.
    fewer = parse_runs(run("w", 1, 0.50, 7.0) + run("w", 2, 0.52, 7.0))
    assert "volumes_per_s" in compare(bench, parent, fewer, io.StringIO())[0]
    # A larger failed share fails, even with every median better.
    failing = parse_runs(run("w", 1, 0.3, 15.0, failed=1) +
                         run("w", 2, 0.3, 15.0))
    assert "failed_ratio" in compare(bench, parent, failing,
                                     io.StringIO())[0]
    # A workload measured on one side only is not a pass.
    assert compare(bench, parent, parse_runs(run("v", 1, 0.1, 1.0)),
                   io.StringIO())
    try:
        parse_runs('{"metrics": {}}\n')
    except ValueError:
        pass
    else:
        raise AssertionError("an unlabelled result line must be rejected")
    print("bench_diff self-test: OK")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    ap.add_argument("--benchmark",
                    default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        ap.error("--parent and --change each need at least one file")
    try:
        with open(args.benchmark) as f:
            bench = json.load(f)
        parent, change = load(args.parent), load(args.change)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    if not parent or not change:
        print("bench_diff: no e2ebench result lines found", file=sys.stderr)
        return 2
    violations = compare(bench, parent, change, sys.stdout)
    for v in violations:
        print(f"WORSE: {v}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
