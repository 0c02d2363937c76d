(* Normal form: constant plus an assoc list of (variable, coefficient),
   sorted by variable name with all coefficients non-zero. The
   representation is canonical, so structural equality, polymorphic compare
   and Hashtbl.hash are all sound on [t] — the tDFG and the e-graph rely on
   this for hash-consing nodes that embed affine bounds. *)
type t = { consts : int; terms : (string * int) list }

let const c = { consts = c; terms = [] }
let var x = { consts = 0; terms = [ (x, 1) ] }
let term c x = if c = 0 then const 0 else { consts = 0; terms = [ (x, c) ] }

let zero = const 0
let one = const 1

let rec merge_terms a b =
  match (a, b) with
  | [], t | t, [] -> t
  | (xa, ca) :: ra, (xb, cb) :: rb ->
    let cmp = String.compare xa xb in
    if cmp < 0 then (xa, ca) :: merge_terms ra b
    else if cmp > 0 then (xb, cb) :: merge_terms a rb
    else
      let c = ca + cb in
      if c = 0 then merge_terms ra rb else (xa, c) :: merge_terms ra rb

let add a b = { consts = a.consts + b.consts; terms = merge_terms a.terms b.terms }

let scale k t =
  if k = 0 then zero
  else { consts = k * t.consts; terms = List.map (fun (x, c) -> (x, k * c)) t.terms }

let neg t = scale (-1) t
let sub a b = add a (neg b)
let add_const t c = { t with consts = t.consts + c }

let is_const t = if t.terms = [] then Some t.consts else None
let vars t = List.map fst t.terms
let coeff t x = match List.assoc_opt x t.terms with Some c -> c | None -> 0
let const_part t = t.consts

let subst t x e =
  let c = coeff t x in
  if c = 0 then t
  else add { t with terms = List.remove_assoc x t.terms } (scale c e)

(* Top-level recursion instead of a fold so evaluation allocates nothing:
   a closure over [env] per call adds up — the JIT resolves every live
   node's bounds through here on each kernel invocation. *)
let rec eval_terms env acc terms =
  match terms with
  | [] -> acc
  | (x, c) :: tl -> eval_terms env (acc + (c * env x)) tl

let eval t env = eval_terms env t.consts t.terms

let equal (a : t) (b : t) = a == b || a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let leq ?(min_var = 1) a b =
  let d = sub b a in
  List.for_all (fun (_, c) -> c >= 0) d.terms
  && d.consts + (min_var * List.fold_left (fun acc (_, c) -> acc + c) 0 d.terms) >= 0

let to_string t =
  let buf = Buffer.create 16 in
  let first = ref true in
  List.iter
    (fun (x, c) ->
      if c > 0 && not !first then Buffer.add_char buf '+';
      if c = 1 then Buffer.add_string buf x
      else if c = -1 then (
        Buffer.add_char buf '-';
        Buffer.add_string buf x)
      else Buffer.add_string buf (Printf.sprintf "%d%s" c x);
      first := false)
    t.terms;
  if t.consts <> 0 || !first then begin
    if t.consts >= 0 && not !first then Buffer.add_char buf '+';
    Buffer.add_string buf (string_of_int t.consts)
  end;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
let hash (t : t) = Hashtbl.hash t
