#!/usr/bin/env python3
"""The mph-serve wire battery (docs/SERVE.md): drives the stdio daemon with
one scripted request stream and asserts the protocol contract response by
response —

  * every response line is strict JSON (json.loads, which rejects raw
    control characters — pinning analysis::json_escape on the wire);
  * request ids echo back; unknown ops and malformed JSON come back as
    structured errors without killing the daemon;
  * content-addressed caching: repeated specs hit, duplicate specs within
    one batch dedup onto a single computation, the engine-option variant
    force_scc is keyed separately with an agreeing verdict, the retired
    explore_threads and class_dispatch keys are ignored (served from the
    default route's entry), and a model delta invalidates only its own
    digest;
  * budget_ms: 0 on an uncached spec yields a well-formed budget-deadline
    Unknown with MPH-V004, and the exhausted result is never cached;
  * the stats op's counters agree with the stream the daemon just served.

Usage: serve_smoke.py PATH-TO-MPH-SERVE
"""
import json
import subprocess
import sys

SAFETY = "G !(c1 & c2)"
LIVENESS = "G(t1 -> F c1)"

TOGGLE = {
    "vars": [{"name": "x", "lo": 0, "hi": 1, "init": 0}],
    "transitions": [
        {"name": "t1", "fairness": "weak", "guard": [],
         "effects": [{"var": 0, "src": 0, "add": 1}]},
    ],
}
# The same system with a different initial state: a model delta, so its
# digest must differ and its verdicts must be recomputed.
TOGGLE_DELTA = {
    "vars": [{"name": "x", "lo": 0, "hi": 1, "init": 1}],
    "transitions": TOGGLE["transitions"],
}

REQUESTS = [
    {"op": "parse", "id": 1, "formula": "G  (p ->  F q)"},   # noisy spacing
    {"op": "parse", "id": 2, "formula": "G(p -> F q)"},       # same canonical form
    {"op": "classify", "id": 3, "formula": "G(p | F G q)"},
    {"op": "check", "id": 4, "model": "peterson",
     "specs": [SAFETY, LIVENESS, SAFETY]},                    # in-batch duplicate
    {"op": "check", "id": 5, "model": "peterson", "specs": [SAFETY]},
    {"op": "check", "id": 6, "model": "peterson", "specs": [SAFETY],
     "force_scc": True},                                      # separate cache key
    {"op": "check", "id": 7, "model": "peterson", "specs": [SAFETY],
     "explore_threads": 2, "class_dispatch": False},          # ignored: a hit
    {"op": "check", "id": 8, "model": TOGGLE, "specs": ["F xhi", "G xlo"]},
    {"op": "check", "id": 9, "model": TOGGLE, "specs": ["F xhi"]},
    {"op": "check", "id": 10, "model": TOGGLE_DELTA, "specs": ["F xhi"]},
    {"op": "check", "id": 11, "model": "peterson", "specs": ["G(c1 -> F !c1)"],
     "budget_ms": 0},                                         # uncached: must exhaust
    {"op": "check", "id": 12, "model": "peterson", "specs": ["G(c1 -> F !c1)"]},
    {"op": "invalidate", "id": 13, "model": TOGGLE},
    {"op": "check", "id": 14, "model": TOGGLE, "specs": ["F xhi"]},
    {"op": "vacuity", "id": 15, "model": "trivial-mutex",
     "specs": ["G(c1 -> O t1)"]},
    {"op": "bogus-op", "id": 16},
    {"op": "check", "id": 17, "model": "no-such-model", "specs": ["G p"]},
    {"op": "check", "id": 18, "model": "peterson", "specs": [SAFETY],
     "budget_states": "many"},                                # malformed budget
    # A rescue-family formula: the rewriter refuses, the Büchi closure tests
    # still classify (exact_source "nba", docs/COMPLEMENT.md).
    {"op": "classify", "id": 20, "formula": "F (p & X (p U q))"},
    # Uncached, but implied by the cached holding SAFETY entry: the verdict
    # transfers across specs via language inclusion (cache "subsume").
    {"op": "check", "id": 21, "model": "peterson",
     "specs": ["F !(c1 & c2)"]},
    {"op": "check", "id": 22,
     "model": {"vars": [{"name": "x", "lo": 0, "hi": 1, "init": 0},
                        {"name": "x", "lo": 0, "hi": 2, "init": 0}],
               "transitions": []},
     "specs": ["G p"]},                                       # duplicate var name
    "this is not json",
    {"op": "stats", "id": 19},
]


def fail(what, response=None):
    print(f"FAIL: {what}", file=sys.stderr)
    if response is not None:
        print(f"  response: {json.dumps(response)[:400]}", file=sys.stderr)
    sys.exit(1)


def expect(cond, what, response=None):
    if not cond:
        fail(what, response)


def result_of(response, index=0):
    return response["results"][index]


def main():
    if len(sys.argv) != 2:
        print("usage: serve_smoke.py PATH-TO-MPH-SERVE", file=sys.stderr)
        sys.exit(2)

    lines = [r if isinstance(r, str) else json.dumps(r) for r in REQUESTS]
    proc = subprocess.run([sys.argv[1], "--quiet"],
                          input="\n".join(lines) + "\n",
                          capture_output=True, text=True, timeout=120)
    expect(proc.returncode == 0,
           f"daemon exited {proc.returncode}: {proc.stderr.strip()[:300]}")
    raw = proc.stdout.splitlines()
    expect(len(raw) == len(REQUESTS),
           f"{len(REQUESTS)} requests, {len(raw)} responses")
    # Strict parsing: json.loads rejects raw control characters, so any
    # unescaped newline/tab smuggled into a response fails right here.
    responses = [json.loads(line) for line in raw]
    by_id = {r["id"]: r for r in responses if "id" in r}

    # -- parse: canonicalization and the formula cache ---------------------
    p1, p2 = by_id[1], by_id[2]
    expect(p1["ok"] and p2["ok"], "parse requests must succeed", p1)
    expect(p1["canonical"] == "G(p -> F q)", "canonical form", p1)
    expect(p1["digest"] == p2["digest"],
           "same canonical formula must share one digest", p2)
    expect(p1["cache"] == "miss" and p2["cache"] == "hit",
           "second spelling must hit the formula cache", p2)
    expect(p1["atoms"] == ["p", "q"], "atom vocabulary", p1)

    # -- classify: exact class through normalization -----------------------
    c = by_id[3]
    expect(c["ok"] and c["syntactic"] == "reactivity"
           and c["exact"] == "persistence" and c["outcome"] == "complete",
           "G(p | F G q) must classify exactly as persistence", c)

    # -- batch check: dedup, then hits, then option-variant keys -----------
    b = by_id[4]
    expect(b["ok"], "peterson batch must succeed", b)
    expect([r["verdict"] for r in b["results"]] == ["holds", "holds", "holds"],
           "peterson verdicts", b)
    expect([r["cache"] for r in b["results"]] == ["miss", "miss", "dedup"],
           "duplicate spec inside one batch must dedup", b)
    expect(b["cache"] == {"hits": 0, "misses": 2, "dedup": 1, "subsume": 0},
           "batch cache counters", b)
    expect(b["results"][0]["digest"] == b["results"][2]["digest"],
           "duplicate specs share a digest", b)

    warm = by_id[5]
    expect(result_of(warm)["cache"] == "hit"
           and result_of(warm)["verdict"] == "holds",
           "repeated (model, spec) must hit the verdict cache", warm)
    expect(result_of(warm)["engine"] == "safety-prefix",
           "the default route sends the safety spec to the closed-prefix scan",
           warm)

    scc = by_id[6]
    expect(result_of(scc)["cache"] == "miss",
           "force_scc must be keyed separately from the default route", scc)
    expect(result_of(scc)["verdict"] == "holds",
           "force_scc verdict must agree", scc)
    # The default route sends the safety spec to the closed-prefix scan;
    # force_scc pins the general ω-product route.
    expect(result_of(scc)["engine"] == "SCC",
           "force_scc must override class dispatch", scc)
    expect(scc["options_digest"] != warm["options_digest"],
           "options digest must differ under force_scc", scc)

    par = by_id[7]
    expect(result_of(par)["cache"] == "hit"
           and result_of(par)["verdict"] == result_of(warm)["verdict"],
           "explore_threads and class_dispatch must be ignored: a hit with "
           "the same verdict", par)
    expect(par["options_digest"] == warm["options_digest"],
           "explore_threads and class_dispatch must not change the options "
           "digest", par)

    # -- inline models: content addressing and deltas ----------------------
    inline = by_id[8]
    expect(inline["ok"], "inline model check must succeed", inline)
    expect(result_of(inline, 0)["verdict"] == "holds",
           "F xhi holds on the weakly-fair toggle", inline)
    expect(result_of(inline, 1)["verdict"] == "violated"
           and "counterexample" in result_of(inline, 1),
           "G xlo is violated with a counterexample", inline)

    inline_warm = by_id[9]
    expect(result_of(inline_warm)["cache"] == "hit",
           "inline model re-check must hit", inline_warm)

    delta = by_id[10]
    expect(delta["model_digest"] != inline["model_digest"],
           "a model delta must change the model digest", delta)
    expect(result_of(delta)["cache"] == "miss",
           "a model delta must miss (only its own digest invalidated)", delta)

    # -- budget-deadline Unknown (the between-legs gate) -------------------
    exhausted = by_id[11]
    expect(exhausted["ok"], "budget_ms:0 must still be a well-formed response",
           exhausted)
    r = result_of(exhausted)
    expect(r["verdict"] == "unknown" and r["outcome"] == "budget-deadline",
           "budget_ms:0 on an uncached spec must report a budget-deadline "
           "Unknown", exhausted)
    expect(any(d["code"] == "MPH-V004" for d in exhausted["diagnostics"]),
           "budget exhaustion must carry MPH-V004", exhausted)

    after = by_id[12]
    expect(result_of(after)["cache"] == "miss"
           and result_of(after)["verdict"] == "holds",
           "an exhausted result must never be cached", after)

    # -- explicit invalidation ---------------------------------------------
    inv = by_id[13]
    expect(inv["ok"] and inv["invalidated"] >= 1,
           "invalidate must drop the inline model's entries", inv)
    expect(by_id[14]["results"][0]["cache"] == "miss",
           "post-invalidate check must recompute", by_id[14])

    # -- vacuity ------------------------------------------------------------
    vac = by_id[15]
    expect(vac["ok"]
           and vac["requirements"][0]["verdict"].lower() == "vacuous"
           and any(d["code"] == "MPH-Y002" for d in vac["diagnostics"]),
           "trivial-mutex antecedent vacuity", vac)

    # -- NBA-backed classification and cross-spec subsumption --------------
    rescue = by_id[20]
    expect(rescue["ok"] and rescue["exact"] == "guarantee"
           and rescue.get("exact_source") == "nba",
           "the rescue formula must classify exactly via the Büchi closure "
           "tests after the rewriter refuses", rescue)

    sub = by_id[21]
    r = result_of(sub)
    expect(r["cache"] == "subsume" and r["verdict"] == "holds"
           and "via" in r,
           "F !(c1 & c2) must derive from a cached holding donor via "
           "language inclusion", sub)
    expect(sub["cache"]["subsume"] == 1, "batch subsume counter", sub)

    dup = by_id[22]
    expect(not dup["ok"] and dup["error"]["code"] == "bad-request"
           and "duplicate" in dup["error"]["message"],
           "duplicate model var names must be a structured bad-request", dup)

    # -- error paths keep the daemon alive ---------------------------------
    expect(not by_id[16]["ok"]
           and by_id[16]["error"]["code"] == "bad-request",
           "unknown op is a structured bad-request", by_id[16])
    expect(not by_id[17]["ok"]
           and by_id[17]["error"]["code"] == "bad-request",
           "unknown model is a structured bad-request", by_id[17])
    expect(not by_id[18]["ok"]
           and by_id[18]["error"]["code"] == "bad-request",
           "malformed budget_states is a structured bad-request", by_id[18])
    bad_json = responses[lines.index("this is not json")]
    expect(not bad_json["ok"] and bad_json["error"]["code"] == "bad-json",
           "malformed JSON is a structured bad-json error", bad_json)

    # -- stats consistency ---------------------------------------------------
    stats = by_id[19]["stats"]
    # The stats payload is computed while its own request is in flight, so
    # it reports every *prior* request.
    expect(stats["requests"] == len(REQUESTS) - 1,
           "stats.requests must count every prior request", by_id[19])
    endpoints = stats["endpoints"]
    expect(endpoints["parse"]["count"] == 2
           and endpoints["classify"]["count"] == 2
           and endpoints["check"]["count"] == 14
           and endpoints["vacuity"]["count"] == 1
           and endpoints["invalid"]["count"] == 1
           and endpoints["bogus-op"]["count"] == 1,
           "per-endpoint request counts", by_id[19])
    expect(endpoints["check"]["errors"] == 3,   # ids 17, 18 and 22
           "check endpoint error count", by_id[19])
    expect(stats["budget_exhaustions"] == 1, "budget exhaustion count",
           by_id[19])
    expect(stats["caches"]["verdict"]["subsume_hits"] == 1
           and stats["caches"]["implications"]["checks"] >= 1,
           "subsume hit / implication-check counters", by_id[19])
    verdict = stats["caches"]["verdict"]
    expect(verdict["hits"] == 3 and verdict["dedup"] == 1,
           "verdict cache hit/dedup counters", by_id[19])
    expect(endpoints["check"]["p50_us"] > 0,
           "latency percentiles must be populated", by_id[19])

    print(f"serve smoke: all {len(REQUESTS)} wire responses hold")


if __name__ == "__main__":
    main()
