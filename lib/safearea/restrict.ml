let max_subsets = 100_000

let count ~m ~t =
  if t < 0 || t > m then 0
  else begin
    let t = min t (m - t) in
    let acc = ref 1 in
    (try
       for i = 1 to t do
         let next = !acc * (m - t + i) / i in
         if next < !acc then begin
           (* overflow *)
           acc := max_int;
           raise Exit
         end;
         acc := next
       done
     with Exit -> ());
    !acc
  end

(* Iterative lexicographic generator over index arrays: [idx] walks the
   C(m, t) combinations of [keep = m − t] positions in increasing
   lexicographic order — the same order the old recursive list-of-lists
   version produced — with the family size taken from [count] instead of
   being discovered by consing. No list append, no [List.length], and the
   only allocations are the result rows themselves. *)
let check ~m ~t =
  if t < 0 || t > m then invalid_arg "Restrict.subsets: bad t";
  if count ~m ~t > max_subsets then
    invalid_arg "Restrict.subsets: family too large"

let subsets_arr ~t arr =
  let m = Array.length arr in
  check ~m ~t;
  let keep = m - t in
  let total = count ~m ~t in
  if keep = 0 then Array.make total [||]
  else begin
    let out = Array.make total [||] in
    let idx = Array.init keep (fun i -> i) in
    for s = 0 to total - 1 do
      out.(s) <- Array.init keep (fun i -> arr.(idx.(i)));
      if s < total - 1 then begin
        (* Advance: bump the rightmost index that still has headroom and
           restack everything to its right immediately after it. *)
        let p = ref (keep - 1) in
        while idx.(!p) = m - keep + !p do
          decr p
        done;
        idx.(!p) <- idx.(!p) + 1;
        for q = !p + 1 to keep - 1 do
          idx.(q) <- idx.(q - 1) + 1
        done
      end
    done;
    out
  end

let subsets ~t l =
  Array.to_list (Array.map Array.to_list (subsets_arr ~t (Array.of_list l)))
