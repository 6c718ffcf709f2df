(** A complete experiment description: configuration, network, inputs,
    corruptions and (optionally) a chaos fault plan. Running one is a pure
    function of this record. *)

type budget = {
  max_events : int option;
      (** engine event budget for the run; [None] = the engine default
          (10M) — but see {!Runner.run}: exhaustion is reported as a
          structured [Budget_exhausted] outcome, not an exception *)
  wall_seconds : float option;
      (** wall-clock deadline for the run, polled cooperatively between
          engine events; exceeding it yields a [Timed_out] outcome.
          Wall-clock is inherently non-reproducible — use it as a hang
          safety net, and [max_events] as the deterministic budget *)
}

val no_budget : budget
(** Both fields [None]: the pre-watchdog behaviour. *)

type t = {
  name : string;
  cfg : Config.t;
  seed : int64;
  policy : Engine.delay_policy;
  sync_network : bool;
      (** whether [policy] respects the Δ bound — decides which corruption
          budget ([ts] or [ta]) the run is graded against *)
  inputs : Vec.t list;  (** one per party, including corrupted ones *)
  corruptions : (int * Behavior.t) list;  (** party id ↦ behaviour *)
  chaos : Fault_plan.t option;
      (** seeded fault plan layered on top of [policy] and [corruptions]
          (see {!Fault_plan}); adaptive corruption targets count against
          the same [ts]/[ta] budget *)
  mutant : Party.mutant option;
      (** deliberately broken protocol variant — only for proving the
          monitor detects real bugs *)
  mode : Party.mode;
      (** honest parties' protocol mode (see {!Party.mode}): [Estimate]
          (default, the paper's Πinit + iterations) or [Fixed_t] — the
          known-input-bounds variant that skips Πinit, used by E16 and by
          the B14 small-instance saturation bench. Ignored under [`Ew]. *)
  isolate : bool;
      (** run the engine under [`Isolate]: a party-handler exception
          records a failure and crashes that party instead of aborting the
          whole run (and, in pooled sweeps, the whole batch) *)
  message_layer : [ `Interned | `Batched ];
      (** rBC egress path for honest parties (see {!Party.attach}):
          [`Interned] (default) sends one packet per vote; [`Batched]
          coalesces each party's per-tick rBC votes into one combined
          packet per receiver (ignored under [`Ew], which has no rBC
          traffic) *)
  update_kernel : Safe_cache.kernel;
      (** iteration update rule for honest parties (see {!Party.attach}):
          the paper's safe-area midpoint (default) or the centroid-style
          rule benchmarked in E17; ignored under [`Ew] *)
  protocol : [ `Maaa | `Ew ];
      (** which protocol the honest parties run: the paper's hybrid ΠAA
          (default) or the Erbes–Wattenhofer quadratic-communication
          asynchronous AA ({!Ew_aa}). Under [`Ew] the [mutant] and
          [message_layer] fields are ignored. *)
  transport : [ `Sim | `Net ];
      (** message-passing backend: [`Sim] (default) keeps deliveries
          inside the engine's event queue; [`Net] routes every message
          through the loopback TCP runtime ({!Netrun}) below the same
          engine-as-scheduler — results are byte-identical by design,
          which is exactly what the differential harness checks *)
  wire_chaos : Wire_chaos.plan option;
      (** frame-level fault plan for the [`Net] transport (drop /
          duplicate / reorder / delay / flap below the perfect link);
          must be [None] under [`Sim] *)
  budget : budget;
      (** per-case watchdog budgets the runner enforces (see {!budget});
          defaults to {!no_budget} *)
}

val make :
  ?name:string ->
  ?seed:int64 ->
  ?policy:Engine.delay_policy ->
  ?sync_network:bool ->
  ?corruptions:(int * Behavior.t) list ->
  ?chaos:Fault_plan.t ->
  ?mutant:Party.mutant ->
  ?mode:Party.mode ->
  ?isolate:bool ->
  ?message_layer:[ `Interned | `Batched ] ->
  ?update_kernel:Safe_cache.kernel ->
  ?protocol:[ `Maaa | `Ew ] ->
  ?transport:[ `Sim | `Net ] ->
  ?wire_chaos:Wire_chaos.plan ->
  ?budget:budget ->
  cfg:Config.t ->
  inputs:Vec.t list ->
  unit ->
  t
(** Defaults: worst-case synchronous lockstep policy, no corruptions, no
    chaos plan, real protocol, fail-fast engine, interned message layer.
    @raise Invalid_argument on malformed inputs/corruptions, or when the
    fault plan fails {!Fault_plan.validate} (out-of-range or duplicate
    targets, corruption budget exceeded, bad windows). *)

val replicate : seeds:int64 list -> t -> t list
(** One copy per seed (same config, inputs, corruptions and policy), the
    name suffixed ["@<seed>"]. The cheap way to widen a statistical sweep
    over scheduling randomness; feed the list to {!Runner.run_batch}. *)

val honest : t -> int list
(** Parties without a static corruption (adaptive chaos targets are still
    listed — they start the run honest). *)

val chaos_corrupted : t -> int list
(** Targets of the fault plan's adaptive corruptions, sorted. *)

val graded_honest : t -> int list
(** The parties the run's properties are graded against: honest {e and}
    never adaptively corrupted. Equals {!honest} when [chaos] is absent. *)

val corrupt_count : t -> int
(** Static plus adaptive corruptions. *)

val honest_inputs : t -> Vec.t list
(** Inputs of the {!graded_honest} parties. *)
