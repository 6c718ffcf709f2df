(** The multi-instance engine: many concurrent ΠAA (or EW) scenario
    instances multiplexed onto ONE discrete-event loop, sharing payload
    intern tables and safe-area memos — the high-throughput path for
    serving thousands of small agreement requests (the B14 saturation
    bench and the serve front door both run on it).

    {b Determinism contract} (differential-tested by {!check_grid},
    gated by [make multi-check]): a multiplexed run of [k] admissible
    scenarios is byte-identical — results, engine statistics, full
    per-instance traces and monitor summaries — to the [k] sequential
    {!Runner.run}s, except for the [caches] field of {!Runner.result},
    which reports the shared totals.

    Why it holds: the shared engine orders events by (time, global
    sequence number) and instances never exchange messages, so each
    instance's events pop in the same relative order as in a dedicated
    engine. Delays are not drawn from the shared engine's policy:
    each instance carries its own {!Rng} (seeded from its scenario) and
    its own delay policy, and the mux draws delays in exactly the
    per-destination order [Engine.broadcast] would before enqueueing
    through [Engine.send_at].

    Slot layout: instance [j] owns a contiguous block of engine slots,
    so the receiving slot identifies the instance. Messages travel
    untouched — no instance tag, no per-delivery rewrite — so the
    steady-state hot path allocates nothing beyond what a dedicated
    engine would; each party's timers and end-of-tick flusher sit on its
    own slot.

    Cache sharing: one {!Safe_cache} per (D, ts, ta) class serves every
    co-resident instance of that class, and one {!Intern} table per
    party index is shared by the honest ΠAA parties with that index — a
    later instance's safe-area lookups land on earlier instances'
    entries and bypass the LP kernel entirely (the warm-workspace
    story). *)

(** Shared-cache effectiveness totals for a batch of results, with the
    per-class replication of {!Runner.result}[.caches] deduplicated. *)
type group_stats = {
  instances : int;
  shared_safe_caches : int;  (** distinct (D, ts, ta) cache classes *)
  safe_hits : int;
  safe_misses : int;
  intern_hits : int;
  intern_misses : int;
}

val muxable : Scenario.t -> bool
(** [muxable s] is whether [s] can join a multiplexed group: [`Sim]
    transport, no wire/engine chaos, no isolation, no [max_events]
    budget (a [wall_seconds] budget is fine — it grades liveness, not
    event order), and only [Silent] /
    [Honest_with_input] corruptions. {!run_many} runs non-muxable
    scenarios on dedicated engines instead. *)

val run_group :
  ?monitor:bool ->
  ?tracer:(int -> Message.t Engine.trace_event -> unit) ->
  ?on_engine:(Message.t Engine.t -> unit) ->
  Scenario.t list ->
  Runner.result list
(** [run_group scenarios] runs every scenario to termination on one
    shared engine and returns results in input order. Raises
    [Invalid_argument] if any scenario is not {!muxable}.
    [?tracer j] observes instance [j]'s engine trace events.
    [?on_engine] receives the shared engine right after creation (before
    any instance attaches) — the seam the choice-point-hook tests use to
    install a default {!Engine.set_chooser} on the mux engine. *)

val run_many :
  ?monitor:bool ->
  ?group_size:int ->
  ?domains:int ->
  ?pool:Pool.t ->
  Scenario.t list ->
  Runner.result list
(** [run_many scenarios] is the sharded front end: muxable scenarios
    are packed into groups of at most [group_size] (default 64, the
    cache-locality sweet spot measured by B14), non-muxable ones fall
    back to dedicated {!Runner.run}s, and the resulting jobs are spread
    across worker domains — over [?pool] if given (the pool survives
    the call; the serve daemon reuses one across connections), else
    over [Pool.Supervised] when [~domains] > 1 (a crashed worker's
    group is re-run sequentially un-multiplexed). Results come back in
    input order regardless of sharding. *)

val group_stats : Runner.result list -> group_stats
(** Aggregate shared-cache counters across a batch of results,
    deduplicating the per-class totals that {!run_group} replicates
    into every member of a cache class. *)

val check_group :
  what:string -> Scenario.t list -> string list
(** [check_group ~what scenarios] runs the group sequentially and
    multiplexed (both fully monitored and traced) and returns one
    human-readable line per byte-level divergence — results, monitor
    summaries, trace lengths, first diverging trace event. [[]] means
    the determinism contract holds for this group. *)

val check_grid : unit -> string list
(** The full differential grid: {interned, batched} message layer ×
    k ∈ {1,4,16} × D ∈ {1,2} × {sync, async} × {silent, poison}, plus
    an EW group. Returns all mismatch descriptions
    ([[]] = clean); both [test/test_multi.ml] and the [make multi-check]
    gate assert emptiness. *)
