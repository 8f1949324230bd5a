#!/usr/bin/env python3
"""Bookkeeping around the benchmark binaries: merge, protocol, compare.

Called by perf/run.sh; measures nothing itself. Bounds, directions and
metric names come from BENCHMARK.json, never from here.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def merge(out_path, run_files):
    """One record of several runs: the first run's header, every run's body."""
    runs = []
    for path in run_files:
        with open(path) as f:
            runs.append(json.load(f))
    header = dict(runs[0]["header"])
    merged = {"header": header, "workloads": {}}
    for r in runs:
        body = {k: v for k, v in r.items() if k not in ("header", "workload")}
        merged["workloads"][r["workload"]] = body
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    print(f"wrote {out_path}")


def spread(values):
    """Quartile distance over median, as the driver takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, new, better):
    """Share of `base` by which `new` is worse (negative: better)."""
    delta = (new - base) / base
    return delta if better == "lower" else -delta


TIMES = {"s", "ms", "s/GB"}  # units of the metrics reported at reference speed


def protocol(argv):
    """Two sets x N seeds x every workload of --trace 0 runs, judged by the
    benchmark's own bounds, every metric alike: spread within each set and
    the shift between the sets' medians. Beside each spread, in brackets,
    the spread the same runs would have had without the speed reference.
    Every run's values go to `argv[2]`, if given: committed as
    perf/baseline/seed_protocol.json, they are the run-to-run spread that
    `compare` judges by."""
    sets, seeds = int(argv[0]), int(argv[1])
    c = contract()
    workloads = [w["name"] for w in c["workloads"]]
    metrics = c["end_to_end"]
    values, raw = {}, {}  # (set, workload, metric) -> [value per seed]
    for s in range(sets):
        for i in range(seeds):
            seed = 1 + s * seeds + i
            for w in workloads:
                cmd = c["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(c["run_seconds"]), "--trace", "0"]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
                if done.returncode != 0 or not last.startswith("{"):
                    sys.exit(f"protocol: {' '.join(cmd)} exited {done.returncode}")
                result = json.loads(last)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"protocol: {w} seed {seed}: failed={result['failed']}")
                with open(os.path.join(ROOT, "perf", "out", f"result_{w}.json")) as f:
                    at_ref = float(json.load(f)["lines"]["speed_correction"])
                for m in metrics:
                    v = result["metrics"][m["name"]]["value"]
                    values.setdefault((s, w, m["name"]), []).append(v)
                    raw.setdefault((s, w, m["name"]), []).append(
                        v / at_ref if m["unit"] in TIMES else v)
                print(f"protocol: set {s + 1} seed {seed} {w} done", file=sys.stderr)
    if len(argv) > 2:
        with open(argv[2], "w") as f:
            json.dump({"at_reference_speed": {"|".join(map(str, k)): v for k, v in values.items()},
                       "as_measured": {"|".join(map(str, k)): v for k, v in raw.items()}}, f, indent=1)
    ok = True
    print("| workload | metric | bound | " + " | ".join(
        f"set {s + 1} median | set {s + 1} spread (uncorrected)" for s in range(sets))
        + " | shift | verdict |")
    print("|---|---|---|" + "---|---|" * sets + "---|---|")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [values[(s, w, name)] for s in range(sets)]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            shift = max(worse_by(medians[a], medians[b], m["better"])
                        for a in range(sets) for b in range(sets) if a != b) if sets > 1 else 0.0
            bad = shift > bound or max(spreads) > bound
            ok = ok and not bad
            cells = " | ".join(
                f"{md:.5g} | {sp:.3f} ({spread(raw[(s, w, name)]):.3f})"
                for s, (md, sp) in enumerate(zip(medians, spreads)))
            print(f"| {w} | {name} | {bound} | {cells} | {shift:+.3f} | {'FAIL' if bad else 'ok'} |")
    sys.exit(0 if ok else 1)


def run_to_run_spreads():
    """(workload, metric) -> the widest spread any set of the committed
    protocol runs showed: what ten runs of one commit differ by."""
    with open(os.path.join(ROOT, "perf", "baseline", "seed_protocol.json")) as f:
        sets = json.load(f)["at_reference_speed"]
    widest = {}
    for key, values in sets.items():
        _, w, m = key.split("|")
        widest[(w, m)] = max(widest.get((w, m), 0.0), spread(values))
    return widest


def compare(a_path, b_path):
    """Every end-to-end metric x workload of two BENCH_perf.json records:
    how much worse B is than A, the bound, and a verdict: `worse` beyond the
    bound; `unresolved` when runs of one commit spread wider than the bound
    (by the committed protocol runs), so a difference that size cannot be
    told from none; else `ok`."""
    c = contract()
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    for side, rec in (("A", a), ("B", b)):
        h = rec["header"]
        print(f"{side}: git {h['git_rev']} seed {h['seed']} seconds {h['seconds']} "
              f"nproc {h['nproc']} {h['cpu_model']} / {h['kernel']} / {h['rustc']} / {h['fs_type']}")
    spreads = run_to_run_spreads()
    print(f"{'workload':<22} {'metric':<30} {'A':>12} {'B':>12} {'delta':>8} {'bound':>6} {'spread':>7}  verdict")
    worse = False
    for w in c["workloads"]:
        wa, wb = a["workloads"].get(w["name"]), b["workloads"].get(w["name"])
        if not wa or not wb:
            continue
        for m in c["end_to_end"]:
            va, vb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if va is None or vb is None:
                continue
            d = worse_by(va["value"], vb["value"], m["better"])
            sp = spreads[(w["name"], m["name"])]
            verdict = "unresolved" if sp > m["bound"] else "worse" if d > m["bound"] else "ok"
            worse = worse or verdict == "worse"
            print(f"{w['name']:<22} {m['name']:<30} {va['value']:>12.5g} {vb['value']:>12.5g} "
                  f"{d:>+8.3f} {m['bound']:>6} {sp:>7.3f}  {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "workloads":
        print(" ".join(w["name"] for w in contract()["workloads"]))
    elif mode == "seconds":
        print(contract()["run_seconds"])
    elif mode == "merge":
        merge(args[0], args[1:])
    elif mode == "protocol":
        protocol(args)
    elif mode == "compare":
        compare(args[0], args[1])
    else:
        sys.exit(f"report.py: unknown mode {mode}")
