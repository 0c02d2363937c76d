type t = (Symaff.t * Symaff.t) array

let make ranges = Array.of_list ranges

let of_hyperrect h =
  Array.init (Hyperrect.dims h) (fun i ->
      (Symaff.const (Hyperrect.lo h i), Symaff.const (Hyperrect.hi h i)))

let dims t = Array.length t
let lo t i = fst t.(i)
let hi t i = snd t.(i)
let ranges t = Array.to_list t

let equal a b =
  a == b
  || Array.length a = Array.length b
  && Array.for_all2
       (fun (la, ha) (lb, hb) -> Symaff.equal la lb && Symaff.equal ha hb)
       a b

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else begin
    let result = ref 0 in
    (try
       Array.iteri
         (fun i (la, ha) ->
           let lb, hb = b.(i) in
           let c = Symaff.compare la lb in
           if c <> 0 then begin
             result := c;
             raise Exit
           end;
           let c = Symaff.compare ha hb in
           if c <> 0 then begin
             result := c;
             raise Exit
           end)
         a
     with Exit -> ());
    !result
  end

let hash t = Hashtbl.hash (Array.map (fun (l, h) -> (Symaff.hash l, Symaff.hash h)) t)

let shift t ~dim ~dist =
  Array.mapi
    (fun i (l, h) ->
      if i = dim then (Symaff.add_const l dist, Symaff.add_const h dist) else (l, h))
    t

let with_range t ~dim ~lo ~hi =
  Array.mapi (fun i r -> if i = dim then (lo, hi) else r) t

let collapse t ~dim =
  Array.mapi
    (fun i ((l, _) as r) -> if i = dim then (l, Symaff.add_const l 1) else r)
    t

let subst t x e = Array.map (fun (l, h) -> (Symaff.subst l x e, Symaff.subst h x e)) t

let max_aff ?min_var a b =
  if Symaff.leq ?min_var a b then Some b
  else if Symaff.leq ?min_var b a then Some a
  else None

let min_aff ?min_var a b =
  if Symaff.leq ?min_var a b then Some a
  else if Symaff.leq ?min_var b a then Some b
  else None

let intersect ?min_var a b =
  if Array.length a <> Array.length b then None
  else begin
    let out = Array.make (Array.length a) (Symaff.zero, Symaff.zero) in
    let ok = ref true in
    Array.iteri
      (fun i (la, ha) ->
        let lb, hb = b.(i) in
        (* identical ranges need no comparability proof (the common case:
           the compiler aligned the tensors before intersecting) *)
        if Symaff.equal la lb && Symaff.equal ha hb then out.(i) <- (la, ha)
        else
          match (max_aff ?min_var la lb, min_aff ?min_var ha hb) with
          | Some l, Some h when Symaff.leq ?min_var l h -> out.(i) <- (l, h)
          | _ -> ok := false)
      a;
    if !ok then Some out else None
  end

let contains ?min_var outer inner =
  Array.length outer = Array.length inner
  && Array.for_all2
       (fun (lo_o, hi_o) (lo_i, hi_i) ->
         Symaff.leq ?min_var lo_o lo_i && Symaff.leq ?min_var hi_i hi_o)
       outer inner

let is_empty ?min_var t =
  Array.exists (fun (l, h) -> Symaff.leq ?min_var h l) t

let resolve t env =
  (* Manual loops (rather than Array.map with closures) keep this hot path
     allocation-free apart from the two result arrays themselves. Bounds
     are evaluated lo-sweep then hi-sweep then validated, matching the
     original map/map/check ordering for exception behaviour. *)
  let n = Array.length t in
  let lo = Array.make n 0 in
  for i = 0 to n - 1 do
    lo.(i) <- Symaff.eval (fst (Array.unsafe_get t i)) env
  done;
  let hi = Array.make n 0 in
  for i = 0 to n - 1 do
    hi.(i) <- Symaff.eval (snd (Array.unsafe_get t i)) env
  done;
  for i = 0 to n - 1 do
    if lo.(i) > hi.(i) then
      invalid_arg
        (Printf.sprintf "Symrect.resolve: reversed bounds [%d,%d) in dim %d"
           lo.(i) hi.(i) i)
  done;
  (* bounds just validated; the fresh arrays are handed over un-copied *)
  Hyperrect.unsafe_make ~lo ~hi

let to_string t =
  if Array.length t = 0 then "[scalar]"
  else
    String.concat "x"
      (Array.to_list
         (Array.map
            (fun (l, h) ->
              Printf.sprintf "[%s,%s)" (Symaff.to_string l) (Symaff.to_string h))
            t))

let pp ppf t = Format.pp_print_string ppf (to_string t)
