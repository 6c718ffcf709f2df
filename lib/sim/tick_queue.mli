(** The simulator's event queue: a monotone tick-bucket queue.

    Entries carry an integer [tick], a sequence number [seq], an unboxed
    [target] rider and a payload. They pop in [(tick, seq)] order, equal
    keys in push order. Each tick has its own slot in a ring of
    power-of-two size, holding a list sorted by [(tick, seq)]; a push
    whose [seq] exceeds its slot's last one (every push the engine makes
    in send order) appends in O(1), and a pop takes a list head. Finding
    the next non-empty tick scans empty slots, which each gap pays about
    once.

    {b Monotonicity.} The queue keeps a cursor: the tick of the last pop
    (initially [0]). Pushing below the cursor raises [Invalid_argument].
    The engine never does: its clock is the tick of its last pop and it
    clamps every push to the clock. Pushing below a {e peeked} minimum is
    fine — an end-of-tick flush does exactly that.

    {b Memory.} The ring doubles whenever a push lands past its span,
    up to 2{^17} slots (2 MB). Wider pending spans wrap the ring: ticks
    2{^17} apart share a slot, still in order, and finding the next tick
    may cost a pass over the ring. So no delay, however long, makes the
    ring outgrow that bound. Entries live in one node pool with a free
    list: once grown, a push or a pop allocates nothing. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> tick:int -> seq:int -> target:int -> 'a -> unit
(** Inserts behind every pending entry with the same [tick] and a smaller
    or equal [seq]. @raise Invalid_argument if [tick] is below the
    cursor. *)

val min_tick : 'a t -> int
(** The smallest pending tick. Does not move the cursor.
    @raise Invalid_argument on an empty queue. *)

val min_seq : 'a t -> int
(** The [seq] of the entry {!pop_exn} would return.
    @raise Invalid_argument on an empty queue. *)

val min_target : 'a t -> int
(** The [target] of the entry {!pop_exn} would return.
    @raise Invalid_argument on an empty queue. *)

val pop_exn : 'a t -> 'a
(** Removes and returns the minimal [(tick, seq)] entry and moves the
    cursor to its tick. @raise Invalid_argument on an empty queue. *)

val iter : 'a t -> (tick:int -> seq:int -> target:int -> 'a -> unit) -> unit
(** Visits every entry in pop order. [f] must not mutate the queue. *)
