(** Differential oracles: the seed implementations of the message layer
    and of the D = 3 safe-area kernel, kept verbatim so tests can check
    the production code against them and benches can price the
    difference. Nothing under [lib/] depends on this library. *)

module Rbc = Seed_rbc
(** Bracha's ΠrBC over [Map]/[Set] vote tables keyed by polymorphic
    compare. Same callbacks and call surface as {!Rbc}; on every call
    sequence it must invoke the callbacks exactly as {!Rbc} does. *)

module Obc = Seed_obc
(** ΠoBC over [Pairset] collected sets and [Pairset.subset] report
    verification. Same callbacks and call surface as {!Obc}; on every
    call sequence it must invoke the callbacks exactly as {!Obc} does. *)

module Hull3d = Hull3d_oracle
(** The per-subset D = 3 safe-area kernel that [Hull3d.inter_trimmed]
    replaced. *)
