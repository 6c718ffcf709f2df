type 'a t = {
  mutable head : int array;  (* slot -> first node, -1 if none *)
  mutable tail : int array;  (* slot -> last node *)
  mutable mask : int;  (* slot count - 1; the slot of a tick is tick land mask *)
  mutable cursor : int;  (* tick of the last pop; no entry lies below it *)
  mutable top : int;  (* the minimal pending tick, or -1 when not yet known *)
  mutable size : int;
  (* node pool: parallel arrays, free nodes chained through [next] *)
  mutable next : int array;
  mutable tick : int array;
  mutable seq : int array;
  mutable target : int array;
  mutable data : 'a array;
  mutable free : int;
}

let initial_slots = 64

(* The ring stops doubling here (2 MB of slots). A wider pending span
   wraps: a slot then holds several ticks, still in (tick, seq) order. *)
let max_slots = 1 lsl 17

let create () =
  {
    head = Array.make initial_slots (-1);
    tail = Array.make initial_slots (-1);
    mask = initial_slots - 1;
    cursor = 0;
    top = -1;
    size = 0;
    next = [||];
    tick = [||];
    seq = [||];
    target = [||];
    data = [||];
    free = -1;
  }

let is_empty q = q.size = 0
let size q = q.size

(* Each old slot's list is sorted and splits into sublists of new slots
   that no other old slot feeds, so appending in list order keeps every
   new slot sorted. *)
let grow_ring q tick =
  let slots = ref (2 * (q.mask + 1)) in
  while tick - q.cursor >= !slots && !slots < max_slots do
    slots := 2 * !slots
  done;
  let mask = !slots - 1 in
  let head = Array.make !slots (-1) and tail = Array.make !slots (-1) in
  Array.iter
    (fun first ->
      let n = ref first in
      while !n >= 0 do
        let node = !n in
        n := q.next.(node);
        q.next.(node) <- -1;
        let s = q.tick.(node) land mask in
        if tail.(s) < 0 then head.(s) <- node else q.next.(tail.(s)) <- node;
        tail.(s) <- node
      done)
    q.head;
  q.head <- head;
  q.tail <- tail;
  q.mask <- mask

let grow_pool q x =
  let cap = Array.length q.next in
  let ncap = max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.next <- extend q.next (-1);
  for i = cap to ncap - 2 do
    q.next.(i) <- i + 1
  done;
  q.tick <- extend q.tick 0;
  q.seq <- extend q.seq 0;
  q.target <- extend q.target 0;
  q.data <- extend q.data x;
  q.free <- cap

(* Whether node [n] pops before a new entry at (tick, seq); equal keys keep
   push order. *)
let[@inline] before q n ~tick ~seq =
  q.tick.(n) < tick || (q.tick.(n) = tick && q.seq.(n) <= seq)

let push q ~tick ~seq ~target x =
  let d = tick - q.cursor in
  if d < 0 then invalid_arg "Tick_queue.push: tick below the cursor";
  if d > q.mask && q.mask + 1 < max_slots then grow_ring q tick;
  if q.free < 0 then grow_pool q x;
  let node = q.free in
  q.free <- q.next.(node);
  q.tick.(node) <- tick;
  q.seq.(node) <- seq;
  q.target.(node) <- target;
  q.data.(node) <- x;
  let s = tick land q.mask in
  let last = q.tail.(s) in
  q.next.(node) <- -1;
  if last < 0 then begin
    q.head.(s) <- node;
    q.tail.(s) <- node
  end
  else if before q last ~tick ~seq then begin
    q.next.(last) <- node;
    q.tail.(s) <- node
  end
  else begin
    (* An older seq (a wire re-injection) or a wrapped slot: the tail
       sorts after [node], so the walk stops before running off the list. *)
    let first = q.head.(s) in
    if not (before q first ~tick ~seq) then begin
      q.next.(node) <- first;
      q.head.(s) <- node
    end
    else begin
      let p = ref first in
      while before q q.next.(!p) ~tick ~seq do
        p := q.next.(!p)
      done;
      q.next.(node) <- q.next.(!p);
      q.next.(!p) <- node
    end
  end;
  if q.size = 0 || tick < q.top then q.top <- tick;
  q.size <- q.size + 1

(* The least tick at or after [from] among the lists starting at [first]
   (one per slot, sorted, nothing below [from]). A slot's least tick is
   the first of its residue class the scan meets, so one lap of the ring
   finds the answer if it lies within a lap; otherwise it is the least
   first tick. *)
let next_tick q first from =
  let tk = ref from and k = ref 0 in
  while
    !k <= q.mask
    &&
    let n = first.(!tk land q.mask) in
    n < 0 || q.tick.(n) <> !tk
  do
    incr tk;
    incr k
  done;
  if !k <= q.mask then !tk
  else
    Array.fold_left
      (fun m n -> if n >= 0 then min m q.tick.(n) else m)
      max_int first

let min_tick q =
  if q.size = 0 then invalid_arg "Tick_queue.min_tick: empty queue";
  if q.top < 0 then q.top <- next_tick q q.head q.cursor;
  q.top

let min_node q = q.head.(min_tick q land q.mask)
let min_seq q = q.seq.(min_node q)
let min_target q = q.target.(min_node q)

let pop_exn q =
  if q.size = 0 then invalid_arg "Tick_queue.pop_exn: empty queue";
  let tk = min_tick q in
  let s = tk land q.mask in
  let node = q.head.(s) in
  let nx = q.next.(node) in
  q.head.(s) <- nx;
  if nx < 0 then q.tail.(s) <- -1;
  if nx < 0 || q.tick.(nx) <> tk then q.top <- -1;
  q.next.(node) <- q.free;
  q.free <- node;
  q.size <- q.size - 1;
  q.cursor <- tk;
  q.data.(node)

let iter q f =
  let first = Array.copy q.head in
  let left = ref q.size and from = ref q.cursor in
  while !left > 0 do
    let tk = next_tick q first !from in
    let s = tk land q.mask in
    while first.(s) >= 0 && q.tick.(first.(s)) = tk do
      let n = first.(s) in
      f ~tick:tk ~seq:q.seq.(n) ~target:q.target.(n) q.data.(n);
      first.(s) <- q.next.(n);
      decr left
    done;
    from := tk + 1
  done
