#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from fresh release-mode experiment runs.

Usage:  python3 scripts/gen_experiments.py
Builds the ks-bench binaries, runs every exp_* experiment, and rewrites
EXPERIMENTS.md with the captured outputs. The formal-artifact sections
capture nothing: each names the tests that assert it on its *Owned by*
line. The load experiments run full-size here, so this also rewrites the
tracked BENCH_*.json files (a `--smoke` run never does). A ks-bench unit
test checks that BINARIES and NOT_CAPTURED split the exp_* binaries
between them, and that every test an *Owned by* line names exists.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BINARIES = [
    "exp_np_scaling",
    "exp_long_txn",
    "exp_chains",
    "exp_optimism",
    "exp_recovery",
    "exp_net_load",
    "exp_conn_scale",
    "exp_wal",
    "exp_certifier",
]
# The one exp_* binary this document does not capture: exp_obs gates
# tracing overhead in scripts/check.sh, and docs/observability.md
# describes it. A full-size reading is 384 transactions per sampling rate,
# so it swings by more than the overhead it reports.
NOT_CAPTURED = ["exp_obs"]


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
lemmas, theorems, and the qualitative claims of Section 2.4 — reproduced
by this repository. Each formal artifact is asserted by the tests its
*Owned by* line names, and `cargo test` runs them all. Every other block
below is the captured output of a release-built `exp_*` binary
(regenerate this document with `python3 scripts/gen_experiments.py`).

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

*Owned by:* ks-core `tree::tests::fig1_shape_and_names`.

## fig2-regions — Figure 2, the correctness-class map

*Paper:* nine example schedules, one per region of the class diagram.
*Measured:* all nine classified into **exactly their claimed cells** by the
full classifier battery (11 classes). Two regions are reconstructed — the
printed schedules are corrupted in the available text — with the
reconstruction justified mechanically (for region 8, exhaustive search over
all 60 interleavings of the printed transactions proves the printed
programs cannot realize the cell; see `corpus.rs`). The
`classifier_tour` example prints the nine rows
(`cargo run --example classifier_tour`).

*Owned by:* ks-schedule
`corpus::tests::every_region_matches_its_expected_membership`,
`corpus::tests::every_region_respects_the_lattice`,
`corpus::tests::regions_are_pairwise_distinct_cells` and
`corpus::tests::printed_region8_programs_cannot_realize_the_cell`.

## ex1-mvsr / ex2-pwsr — Examples 1–3 of Section 4.2

*Paper:* Example 1 is in `MVSR` via the version function that hands `t2`
the initial versions and `t1` the result of `t2` (serial order `t2, t1`);
Example 2 (same schedule, `x`/`y` in different conjuncts) is `PWSR` with
*disagreeing* per-object orders; Examples 3.a/3.b are its serial
decompositions.
*Measured:* identical, including the witness orders (`x`: `t1, t2`;
`y`: `t2, t1`).

*Owned by:* ks-schedule `mvsr::tests::paper_example1_is_mvsr_not_vsr`,
`pwsr::tests::witnesses_disagree_across_objects` and
`corpus::tests::examples_3a_3b_are_the_projections_of_example_2`.

## fig3-locks — Figure 3, the lock compatibility matrix

*Paper:* grants everywhere "except when a read operation conflicts with a
write"; writes never fail; `re-eval` on the read side. (The matrix as
printed in the available text is garbled/transposed; the implementation
follows the prose, which is unambiguous.)
*Measured:* `ks_protocol::locks::compatibility` is this matrix (held
mode × requested mode; `true` grants, `false` blocks briefly on a
momentary `W`, `re-eval` grants the write and re-evaluates the read-side
holders as in Figure 4):

| held \\ requested | `Rv` | `R` | `W` |
|---|---|---|---|
| `Rv` | true | true | re-eval |
| `R` | true | true | re-eval |
| `W` | false | false | true |

*Owned by:* ks-protocol `locks::tests::read_side_mutually_compatible`,
`locks::tests::writes_trigger_reeval_on_read_holders`,
`locks::tests::reads_block_on_held_write` and
`locks::tests::writes_never_conflict_with_writes` (the cells), and
`scenarios::held_write_lock_blocks_reads_and_validation` (the manager
blocks reads and validation on a held write lock).

## fig4-reeval — Figure 4, the re-eval procedure

*Paper:* a write by a predecessor interrupts sibling read-side holders:
`R` holders abort, `R_v` holders are re-assigned; unordered writers disturb
nobody (multiversion independence).
*Measured:* all four branches behave as specified: a reader of the
stale version is aborted, an `R_v` holder is re-assigned and then reads
the new version, a holder whose input rejects the new version is
aborted, and an unordered writer disturbs nobody (both commit).

*Owned by:* ks-protocol
`scenarios::reeval_aborts_reader_of_stale_predecessor_version`,
`scenarios::reeval_reassigns_validation_holder`,
`scenarios::reassign_failure_aborts_holder` and
`scenarios::unordered_writer_does_not_disturb_readers`.

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
template pair and Example 1's own programs, `x` and `y` in separate
conjuncts), the predicate-wise and multiversion classes admit strictly
more interleavings than `SR` (42.9% vs 34.3% on Example 1's programs).
Interleavings admitted per class:

| programs | all | CSR, VSR, FSR, <CSR, <SR | MVCSR, MVSR | PWCSR, PWSR, CPC, PC |
|---|---|---|---|---|
| `R1(x) W1(x) R1(y) W1(y)` · `R2(x) W2(x) R2(y) W2(y)` | 70 | 12 (17.1%) | 12 (17.1%) | 14 (20.0%) |
| Example 1: `R1(x) W1(x) R1(y) W1(y)` · `R2(x) R2(y) W2(y)` | 35 | 12 (34.3%) | 13 (37.1%) | 15 (42.9%) |

Lemma 2 holds on all 12 view-serializable interleavings of the
symmetric pair (constraint `x = y`, both transactions increment both):
each induces a correct, parent-based execution.

*Owned by:* `lattice_props::class_richness_counts`,
`lemma2_props::lemma2_exhaustive_two_transactions`,
`lemma2_props::lemma2_exhaustive_three_transactions_sampled` and
`lemma2_props::lemma2_on_random_interleavings`.

## thm2-protocol — Lemma 4 and Theorem 2, machine-checked

*Paper:* every execution legal under the protocol is parent-based and
correct.
*Measured:* 256 randomized cooperative sessions per test run, each of
2–5 transactions over 2–4 entities: tautological inputs, half of them
strengthened with an `(e = v) ∨ (e ≥ 1)` clause, each transaction
ordered after ≈ 40 % of its earlier siblings, then a random script of
validates, reads, writes, commits and aborts. Whatever commits is
extracted into the formal model and verified by the `ks-core` checkers —
zero violations. (Reaching zero required four strengthenings of the
literal protocol; see DESIGN.md "Protocol strengthenings".) The fourth
closed a Lemma 4 hole: an unordered sibling read another's uncommitted
version and committed before that version was overwritten or aborted, so
its input was neither the parent's version nor the writer's final one. A
commit now waits for the authors of its inputs; with that wait disabled,
the property test fails with `parent_based: false`. Deterministic
tests pin the shape and its nested-abort cousin, the served-system
property test (which once failed on it in up to 94 of 200 runs) runs
unskipped, and the check extends to every level of three-level sessions
(the paper's multi-level criterion) and to sessions driven by the
discrete-event simulator.

*Owned by:* `protocol_model_props::protocol_always_yields_correct_executions`,
ks-protocol `scenarios::reader_of_an_overwritten_uncommitted_version_stays_parent_based`,
`scenarios::nested_abort_cascades_to_the_enclosing_level` and
`multilevel::three_level_design_session_checks_at_every_level`, ks-bench
`tests::chained_cpc_history_is_parent_based`, ks-server
`interleaving::extracted_executions_always_check`, and
`scheduler_guarantees::ks_protocol_sim_runs_are_model_correct`.

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
`cpc` orders the commits and holds a commit until the authors of its
assigned inputs have committed (the few `cpc` waits), and `2pl` also
holds a chained transaction's commit until its predecessor ends — a wait its deadlock detector sees, so
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
preceded by an fsynced commit record (see `docs/durability.md`), and a
commit makes it so on its own thread. A shard appends the commit record
to the log's buffered tail under the shard lock; then, with the lock
released, the committer leads a flush if none is in flight — write the
whole tail, one `sync`, wake every waiter — and otherwise waits for the
one in flight. That is safe because one `sync` covers every record
appended before it, and it batches because whatever is appended while
a sync runs rides the next one. There is no window, no flusher thread,
no second mode and no knob. The experiment pins the sync latency with
a test double (`slow`: a `MemStore` taking 2 ms per sync) and checks
both ends, then records the same 8 clients over plain memory and real
files, ungated.
*Measured:* a lone committer on the 2 ms store pays exactly one
fsync per commit at a median commit latency of 2.09–2.11 ms — its own
sync and nothing else (gates: within 5 % of 1.0; under 2× the injected
latency). Eight committers on the same store need ≈ 0.24× that (gate:
≤ 0.5×): while one leader syncs, the other seven append and wait, and
the next leader takes them all. Real files share the same way (about
one fsync per four commits). Plain memory, whose sync costs nothing, shares
almost nothing (0.96–0.99): with no window a committer never waits for
company, so commits share a sync only when they arrive during one.
`BENCH_wal.json` carries the verdict and the run exits 1 on a failed
one, smoke runs included (the injected latency dwarfs scheduling
noise). Every run's extracted execution still passes the model
checker.

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
mostly loses it too**: short writers park on the long reader's shared
locks, and the long transaction's own write then closes a waits-for
cycle, so wait-or-die makes it the victim in 40–100 % of rounds (five
full-size runs; it committed every round while each short commit still
waited out the WAL's old 2 ms group-commit window). The short writers'
aborts below are the same deadlock victims plus retry-budget
exhaustion.
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
cooperation feature. An abort cascades to the live readers of its
versions only; a CPC commit waits for the authors of its inputs, so
nothing committed is ever undone by a sibling.

```
{exp_recovery}
```
"""

if __name__ == "__main__":
    main()
