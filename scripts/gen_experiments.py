#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from fresh release-mode experiment runs.

Usage:  python3 scripts/gen_experiments.py
Builds the ks-bench binaries, runs every exp_* experiment, and rewrites
EXPERIMENTS.md with the captured outputs. The formal-artifact sections
are deterministic, so they only change when the code does. The load
experiments run full-size here, so this also rewrites the tracked
BENCH_*.json files (a `--smoke` run never does).
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BINARIES = [
    "exp_fig1",
    "exp_fig2",
    "exp_fig3",
    "exp_fig4",
    "exp_examples",
    "exp_np_scaling",
    "exp_containment",
    "exp_long_txn",
    "exp_chains",
    "exp_optimism",
    "exp_recovery",
    "exp_protocol_correct",
    "exp_net_load",
    "exp_conn_scale",
    "exp_wal",
    "exp_certifier",
]


def run(binary: str) -> str:
    out = subprocess.run(
        ["cargo", "run", "--release", "-q", "-p", "ks-bench", "--bin", binary],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if out.returncode != 0:
        sys.exit(f"{binary} failed:\n{out.stdout}\n{out.stderr}")
    return out.stdout.strip()


def main() -> None:
    subprocess.run(
        ["cargo", "build", "--release", "-q", "-p", "ks-bench", "--bins"],
        cwd=ROOT,
        check=True,
    )
    outputs = {b: run(b) for b in BINARIES}

    doc = TEMPLATE.format(**outputs)
    (ROOT / "EXPERIMENTS.md").write_text(doc)
    print(f"EXPERIMENTS.md regenerated ({len(doc)} bytes)")


TEMPLATE = """# EXPERIMENTS — paper vs. measured

Every artifact of Korth & Speegle (SIGMOD 1988) — figures, examples,
lemmas, theorems, and the qualitative claims of Section 2.4 — regenerated
by this repository. All numbers below are actual captured output of the
release-built `exp_*` binaries (deterministic; regenerate this document
with `python3 scripts/gen_experiments.py`).

The paper is a theory paper: it reports no absolute performance numbers, so
"paper vs. measured" means (a) formal artifacts must match **exactly**
(class memberships, witnesses, reductions), and (b) the Section 2.4
qualitative claims must match in **shape** (who wins, how costs scale with
transaction duration).

---

## fig1-tree — Figure 1, the nested transaction

*Paper:* a three-level nested transaction `t` with subtransactions
`t.0` (3 leaves), `t.1` (two children of 2 and 3 leaves), `t.2` (1 leaf),
and the interleaving narrative of Section 2.2.
*Measured:* the tree builds with exactly that shape (15 nodes, depth 4)
and the Figure 1 naming scheme.

```
{exp_fig1}
```

## fig2-regions — Figure 2, the correctness-class map

*Paper:* nine example schedules, one per region of the class diagram.
*Measured:* all nine classified into **exactly their claimed cells** by the
full classifier battery (11 classes). Two regions are reconstructed — the
printed schedules are corrupted in the available text — with the
reconstruction justified mechanically (for region 8, exhaustive search over
all 60 interleavings of the printed transactions proves the printed
programs cannot realize the cell; see `corpus.rs`).

```
{exp_fig2}
```

## ex1-mvsr / ex2-pwsr — Examples 1–3 of Section 4.2

*Paper:* Example 1 is in `MVSR` via the version function that hands `t2`
the initial versions and `t1` the result of `t2` (serial order `t2, t1`);
Example 2 (same schedule, `x`/`y` in different conjuncts) is `PWSR` with
*disagreeing* per-object orders; Examples 3.a/3.b are its serial
decompositions.
*Measured:* identical, including the witness orders.

```
{exp_examples}
```

## fig3-locks — Figure 3, the lock compatibility matrix

*Paper:* grants everywhere "except when a read operation conflicts with a
write"; writes never fail; `re-eval` on the read side. (The matrix as
printed in the available text is garbled/transposed; the implementation
follows the prose, which is unambiguous.)
*Measured:*

```
{exp_fig3}
```

## fig4-reeval — Figure 4, the re-eval procedure

*Paper:* a write by a predecessor interrupts sibling read-side holders:
`R` holders abort, `R_v` holders are re-assigned; unordered writers disturb
nobody (multiversion independence).
*Measured:* all four branches behave as specified:

```
{exp_fig4}
```

## lemma1-np / cpc-poly / ablate-assign — the complexity results

*Paper:* recognizing correct executions is NP-complete (reduction from
SAT, Lemma 1 / Theorem 1); CPC membership is polynomial (Section 4.3);
version selection invites heuristics (Section 5.1).
*Measured:* random 3-CNF instances near the phase transition are decided
through the paper's reduction (cross-checked against truth tables inside
the binary); exhaustive search nodes blow up with the variable count while
backtracking tracks instance difficulty. CPC testing time grows
polynomially in schedule length (Part B). Part C (`ablate-assign`) sums
solver work over 100 seeded CNFs per versions-per-entity count: every
strategy agrees on satisfiability, exhaustive search grows with the
product of candidate lists, and unit propagation prunes nothing on these
instances. Part D times each recognizer per call: the exponential VSR and
MVSR searches blow up with the transaction count while CSR, MVCSR, CPC
and the polygraph VSR test stay in microseconds (timings vary by machine;
the shape is the claim).

```
{exp_np_scaling}
```

## class-richness / lemma2-vsr — Section 4's "richer classes", quantified

*Paper:* each model feature admits strictly more schedules; every view
serializable schedule is a correct execution (Lemma 2).
*Measured:* over every interleaving of two workloads (the symmetric
template pair and Example 1's own programs), the predicate-wise and
multiversion classes admit strictly more interleavings than `SR`
(42.9% vs 34.3% on Example 1's programs), and Lemma 2 holds with zero
violations:

```
{exp_containment}
```

## thm2-protocol — Lemma 4 and Theorem 2, machine-checked

*Paper:* every execution legal under the protocol is parent-based and
correct.
*Measured:* 200 randomized cooperative sessions (random predicates,
orders, reads, writes, aborts), each extracted into the formal model and
verified by the `ks-core` checkers — zero violations *in this
generator*. (Reaching zero required three strengthenings of the literal
protocol; see DESIGN.md "Protocol strengthenings".) **The code does not
yet hold the theorem everywhere:** the generator cannot produce the
shape of the open Lemma 4 hole (ROADMAP item 1) — an unordered sibling
reads another's uncommitted version and commits before that version is
overwritten, so its input is neither the parent's version nor the
writer's final one. Two `#[ignore]`d tests reproduce it
deterministically (ks-protocol's scenario
`reader_of_an_overwritten_uncommitted_version_stays_parent_based` and
ks-bench's `chained_cpc_history_is_parent_based`), and the served-system
property test (`ks-server --test interleaving`) fails on it in 29 of 200
runs, which is why `scripts/check.sh` skips it by name. The proptest harness
(`tests/protocol_model_props.rs`) re-verifies this on every test run;
`crates/protocol/tests/multilevel.rs` extends the check to every level of
three-level sessions (the paper's multi-level criterion); and
`tests/scheduler_guarantees.rs` repeats it for sessions driven by the
discrete-event simulator.

```
{exp_protocol_correct}
```

## sec24-waits / sec24-aborts — the long-transaction claims, measured

*Paper (qualitative):* under 2PL, "locks must be held … for a substantial
fraction of the duration of a transaction", so long transactions impose
long waits; timestamp alternatives abort long transactions, losing "large
amounts of work done by users"; the proposed protocol avoids both.
*Measured shape:* the `2pl` and `cpc` rows are the served certifiers
(`TplCertifier`, `ProtocolManager`) run through the simulator by
`ks_baselines::CertifierBridge`; T/O, MVTO and predicate-wise 2PL are
simulator-only schedulers. As think time (transaction duration) grows
1 → 200 ticks, strict 2PL's total wait time grows about 100× (718 →
71 626 ticks) and its max single wait tracks transaction length; its
aborts are all deadlock victims of its waits-for detector (the `rv_ab`
column, where the certifier counts the aborts it initiates). Basic T/O
never waits and still commits all 16, but its aborts grow 23 → 121 and
the work they throw away grows 168 → 71 958 ticks; MVTO aborts fewer
long writers but follows the same trend. CPC commits everything with
**zero waits and zero aborts** at every duration.

```
{exp_long_txn}
```

## coop-chains — cooperation chains under the five schedulers

*Paper:* cooperating transactions (a designer picking up a colleague's
in-flight work) are the motivating workload; the protocol expresses the
cooperation as partial-order edges and repairs optimism with `re-eval`.
*Measured:* with chains the protocol's internal repair machinery becomes
visible (re-assigns, a few re-eval aborts) while remaining far cheaper than
2PL's waits. Both served certifiers receive the chain as `after` edges:
`cpc` orders the commits, and `2pl` also holds a chained transaction's
commit until its predecessor ends — a wait its deadlock detector sees, so
a predecessor blocked on its successor's locks costs a deadlock victim
(`rv_ab`), not a livelock. T/O, MVTO and predicate-wise 2PL cannot express
the ordering at all.

```
{exp_chains}
```

## ablate-optimism — optimistic vs pessimistic validation

*Paper (Section 5.1):* the protocol is optimistic; the pessimistic
alternative "could require an extremely long wait".
*Measured:* on a fully-ordered chain of 12 writers, the optimistic
discipline validates all 12 immediately and pays 11 re-assignments; the
pessimistic variant waits 11 times and pays none. The re-eval activity
also scales with ordering density (top table):

```
{exp_optimism}
```

## net-load — the same client API over loopback TCP

*Beyond the paper:* `ks-net` puts the service behind a length-prefixed
binary wire protocol (protocol v3: correlation ids, pipelining, `Batch`
frames, the certification-backend byte — see `docs/wire.md`). The experiment runs one deterministic
closed-loop workload through the transport-generic driver at 4 shards:
once with in-process `Session`s (the baseline), then over loopback-TCP
`RemoteSession`s sweeping pipeline depth {{1, 4}} × op batching
{{off, on}} (per-request deadlines and bounded jittered retry/backoff
active throughout). Every run finishes with a graceful drain handing
every shard manager to the model checker; zero violations is this
experiment's one verdict (a violation exits 1). Shard scaling and
per-layer cost are `benchmark/`'s job (`2pl_net`, `cpc_short`).
*Measured:* all transports and configurations account for identical
transaction outcomes, and every extracted execution is correct. Batching
is the big lever: folding each transaction's six-op burst into one
`Batch` frame removes five of six syscall round trips. The in-process
baseline runs each certifier call on the client's own thread under its
shard's lock — no hand-off at all — so the best loopback configuration
reaches only a small fraction of its throughput. `BENCH_net.json`
records that ratio but no longer gates it: it divides by the one number
the shard lock multiplied, and the old 0.7 gate already sat inside its
own spread (0.45–0.70 across full-size runs on a 2-core box).
Depth 4 *loses* to depth 1 on this workload — splitting a six-op burst
into ⌈6/4⌉-op frames buys overlap that cannot repay the extra framing
at loopback latency; the sweep keeps the honest number. `p50`/`p99` are
exact client-side percentiles of whole committed transactions (open to
commit acknowledgement), not histogram buckets. Committed counts
and the zero-violation verdict are deterministic; throughput, the ratio,
and the percentiles vary by machine.

```
{exp_net_load}
```

## conn-scale — 10,000 idle connections next to the working set

*Beyond the paper:* "millions of users" is mostly *idle* users — a
server's connection count dwarfs its concurrent-request count. The old
thread-per-connection front end paid two OS threads and their stacks
per connection; the readiness-based event loop (`docs/wire.md` § server
threading) claims a fixed thread pool and a pooled decode path whatever
the connection count. This experiment holds that claim to numbers: an
8-client working set drives real transactions (exact client-side
latencies, best of 3 rounds), first on a fresh otherwise-empty server,
then on a second fresh server with 10,000 live handshaken idle
connections parked alongside — fresh per phase because certification
history grows with every commit and a shared server would charge the
second phase for the first's accumulated state. The horde's client ends
live in a child process, so `RLIMIT_NOFILE` stretches twice as far and
the parent's `VmRSS` isolates pure server-side cost.
*Measured:* the horde handshakes in well under a second, costs a few
hundred bytes of RSS per connection (gate: ≤ 32 KiB/conn + fixed
slack — mandatory even in smoke runs), and the working set's p99 does
not move outside round-to-round noise (gate: ≤ 2× the baseline,
recorded for full-size runs only). `BENCH_conn.json` carries both
verdicts, and the run exits 1 on a failed one. The teeth run in
`scripts/check.sh` (`--pinned-buffers 262144 --expect-violation`)
re-introduces naive per-connection buffers — every connection pinning
256 KiB resident for its lifetime — and the memory gate must trip,
proving the bound can see the regression class it exists to prevent.

```
{exp_conn_scale}
```

## wal-load — one commit path: a lone committer pays its own fsync, company shares one

*Beyond the paper:* with `Durability::Wal` every acknowledged commit is
preceded by an fsynced commit record (see `docs/durability.md`), and
exactly one thread issues those fsyncs. A shard worker appends the
commit record, parks the client's reply as a ticket and moves on; the
flusher batches the tickets of a 2 ms window behind one `sync` and
acknowledges them all — safe because one `sync` covers every record
appended before it — and skips the window when no other session is
open, since there is nobody to wait for. There is no second mode and no
knob. The experiment pins the sync latency with a test double (`slow`:
a `MemStore` taking 2 ms per sync) and checks both ends, then records
the same 8 clients over plain memory and real files, ungated.
*Measured:* a lone committer on the 2 ms store pays exactly one fsync
per commit at a median commit latency of 2.2–2.3 ms — its own sync plus
two thread hand-offs, no added wait (gates: within 5 % of 1.0; under
2× the injected latency). Eight committers on the same store need
0.13–0.20× that (gate: ≤ 0.5×), and the same holds on memory and files
(0.13–0.19 fsyncs per commit). `BENCH_wal.json` carries the verdict and
the run exits 1 on a failed one, smoke runs included (the injected latency
dwarfs scheduling noise). Every run's extracted execution still passes
the model checker.

```
{exp_wal}
```

## certifier-shootout — CPC vs SSI vs 2PL on long-duration transactions

*Paper (Sections 1–2):* serializability is ruinous for long-duration
transactions — locking imposes waits as long as the transactions,
certification-on-commit throws their work away — while the paper's
predicate-based protocol admits exactly the correct non-serializable
schedules those transactions need.
*Measured:* the serving stack is generic over the
`ks_protocol::Certifier` trait (`docs/certifiers.md`), so the *same*
CAD-style workload — one transaction holding its reads open across
rounds of hot-entity updates while short writers stream past — runs
under the paper's CPC protocol, an SSI certifier (dangerous-structure
detection + first-committer-wins), and strict 2PL (wait-or-die).
The shape is exactly the paper's argument: **CPC commits the long
transaction every round at a 0% long-txn abort rate** (later writers
just create new versions; its reads stay pinned to assigned versions),
**SSI aborts it every round (100%)** — the long writer always loses
first-committer-wins against the short-writer stream — and **2PL
commits it but stalls the short writers** on its read locks (their
aborts below are wait-or-die deadlock victims plus retry-budget
exhaustion, and short-txn throughput pays for the long reader's locks).
Every run's history passes its backend's offline checker (CPC: the
model check; SSI/2PL: conflict-graph acyclicity). `BENCH_certifier.json`
records the curves; the run exits 1 unless the directional gate holds
(SSI's long-txn abort rate must exceed CPC's by ≥0.2), and
`exp_certifier --teeth` proves the offline checker catches a broken
SSI (detection off) admitting write skew. Abort *rates* are
certification logic and deterministic in shape; throughput and
percentiles vary by machine.

```
{exp_certifier}
```

## recovery-classes — RC / ACA / ST of committed traces

*Paper (Section 1):* the serializable class is also faulted for admitting
non-recoverable and cascading schedules.
*Measured:* the served strict 2PL's (`2pl`) committed traces are always
`ST`; the multiversion schedulers' flat traces are conservative lower
bounds (a flat trace cannot express which *version* a read consumed), and
CPC deliberately forgoes `ACA`: reading in-flight versions is the
cooperation feature, repaired by cascading undo.

```
{exp_recovery}
```
"""

if __name__ == "__main__":
    main()
