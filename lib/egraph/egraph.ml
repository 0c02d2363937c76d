type eid = int

type enode =
  | E_tensor of { array : string; view : Symrect.t; axes : int list }
  | E_const of Tdfg.const_value
  | E_cmp of Op.t * eid list
  | E_mv of { input : eid; dim : int; dist : int }
  | E_bc of { input : eid; dim : int; lo : Symaff.t; hi : Symaff.t }
  | E_shrink of { input : eid; rect : Symrect.t }
  | E_reduce of { op : Op.t; input : eid; dim : int }
  | E_stream of { array : string; view : Symrect.t; coords : Tdfg.coord list }

(* The hashcons is split by node kind. A node made only of small ints
   ([E_cmp] of arity 1-2, [E_mv], [E_reduce]: 84% of lookups) packs into
   one int (see [int_key]) and lives in an [Inttbl]; every other node
   lives in [Memo], with a structural hash and equality: the leaf
   constructors (which may carry a float) keep the polymorphic ones, so
   equality is exactly [compare a b = 0]. Neither table is iterated, so
   their layouts decide no result. *)
module Node = struct
  type t = enode

  let mix h x = (h * 0x2c1b3c6d) + x

  let hash = function
    | E_bc { input; dim; lo; hi } ->
      mix (mix (mix (mix 4 input) dim) (Hashtbl.hash lo)) (Hashtbl.hash hi)
      land max_int
    | E_shrink { input; rect } -> mix (mix 5 input) (Hashtbl.hash rect) land max_int
    | n -> Hashtbl.hash n

  let equal a b =
    a == b
    ||
    match (a, b) with
    | E_bc a, E_bc b ->
      a.input = b.input && a.dim = b.dim && Symaff.equal a.lo b.lo
      && Symaff.equal a.hi b.hi
    | E_shrink a, E_shrink b -> a.input = b.input && Symrect.equal a.rect b.rect
    | (E_bc _ | E_shrink _), _ | _, (E_bc _ | E_shrink _) -> false
    | _ -> compare a b = 0
end

module Memo = Hashtbl.Make (Node)

let op_code : Op.t -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Min -> 4
  | Max -> 5
  | Lt -> 6
  | Select -> 7
  | Relu -> 8
  | Abs -> 9
  | Neg -> 10
  | Copy -> 11
  | Sqrt -> 12

(* 0 <= x < 2^27 *)
let fits x = x lsr 27 = 0

(* The node's hashcons key, or -1 when it does not pack. Bits 0-7 are a
   tag naming the constructor, the op and the arity ([E_cmp] 1-50,
   [E_mv] 64, [E_reduce] 128-140), so that [E_cmp (op, [a])] never meets
   [E_cmp (op, [a; 0])]; bits 8-34 hold the first child and bits 35-61
   the second child, [E_mv]'s dim (4 bits) and dist (23 bits, biased),
   or [E_reduce]'s dim. *)
let int_key = function
  | E_cmp (op, [ a ]) when fits a -> (a lsl 8) lor (op_code op lsl 2) lor 1
  | E_cmp (op, [ a; b ]) when fits a && fits b ->
    (b lsl 35) lor (a lsl 8) lor (op_code op lsl 2) lor 2
  | E_mv { input; dim; dist } when fits input && dim lsr 4 = 0 && (dist + 0x400000) lsr 23 = 0
    ->
    ((dist + 0x400000) lsl 39) lor (dim lsl 35) lor (input lsl 8) lor 64
  | E_reduce { op; input; dim } when fits input && fits dim ->
    (dim lsl 35) lor (input lsl 8) lor 128 lor op_code op
  | _ -> -1

type eclass = {
  mutable cnodes : enode list;
  mutable parents : (enode * eid) list;
  mutable nparents : int;  (** [List.length parents] *)
  mutable dom : Tdfg.dom;
  (* Matching view: [sorted] is [view_of] canonicalized, sorted and
     deduplicated. It stands while [cnodes == view_of] and every child of
     [sorted] is still canonical; [checked] is the union count at which
     that last held. *)
  mutable view_of : enode list;
  mutable sorted : enode list;
  mutable checked : int;
}

type t = {
  min_var : int;
  dims : int;
  mutable parent : int array; (* union-find *)
  mutable data : eclass array; (* valid at canonical ids *)
  mutable n : int;
  ints : Inttbl.t; (* hashcons of the nodes with an [int_key] *)
  memo : eid Memo.t; (* hashcons of the other nodes *)
  mutable worklist : eid list;
  mutable classes : int; (* canonical ids *)
  mutable nodes : int; (* e-nodes over the canonical classes' [cnodes] *)
  mutable unions : int;
}

let new_class n dom =
  { cnodes = [ n ]; parents = []; nparents = 0; dom; view_of = []; sorted = []; checked = -1 }

let create ?(min_var = 4) ~dims () =
  {
    min_var;
    dims;
    parent = Array.make 64 0;
    data = Array.make 64 (new_class (E_const (Tdfg.Lit 0.0)) Tdfg.Infinite);
    n = 0;
    ints = Inttbl.create 16;
    memo = Memo.create 16;
    worklist = [];
    classes = 0;
    nodes = 0;
    unions = 0;
  }

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find t p in
    t.parent.(i) <- root;
    root
  end

let children = function
  | E_tensor _ | E_const _ | E_stream _ -> []
  | E_cmp (_, inputs) -> inputs
  | E_mv { input; _ } | E_bc { input; _ } | E_shrink { input; _ }
  | E_reduce { input; _ } ->
    [ input ]

let map_children f = function
  | (E_tensor _ | E_const _ | E_stream _) as n -> n
  | E_cmp (op, inputs) -> E_cmp (op, List.map f inputs)
  | E_mv r -> E_mv { r with input = f r.input }
  | E_bc r -> E_bc { r with input = f r.input }
  | E_shrink r -> E_shrink { r with input = f r.input }
  | E_reduce r -> E_reduce { r with input = f r.input }

(* The same list when no element moved. *)
let rec find_all t l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = find t x and rest' = find_all t rest in
    if x' = x && rest' == rest then l else x' :: rest'

(* Allocates only when a child moved. *)
let canonicalize t n =
  match n with
  | E_tensor _ | E_const _ | E_stream _ -> n
  | E_cmp (op, inputs) ->
    let inputs' = find_all t inputs in
    if inputs' == inputs then n else E_cmp (op, inputs')
  | E_mv r ->
    let i = find t r.input in
    if i = r.input then n else E_mv { r with input = i }
  | E_bc r ->
    let i = find t r.input in
    if i = r.input then n else E_bc { r with input = i }
  | E_shrink r ->
    let i = find t r.input in
    if i = r.input then n else E_shrink { r with input = i }
  | E_reduce r ->
    let i = find t r.input in
    if i = r.input then n else E_reduce { r with input = i }

let is_canonical t n = canonicalize t n == n

let memo_find t n =
  let k = int_key n in
  if k >= 0 then Inttbl.find t.ints k
  else match Memo.find_opt t.memo n with Some id -> id | None -> -1

let memo_add t n id =
  let k = int_key n in
  if k >= 0 then Inttbl.add t.ints k id else Memo.add t.memo n id

let memo_replace t n id =
  let k = int_key n in
  if k >= 0 then Inttbl.replace t.ints k id else Memo.replace t.memo n id

let memo_remove t n =
  let k = int_key n in
  if k >= 0 then Inttbl.remove t.ints k else Memo.remove t.memo n

let class_of t i = t.data.(find t i)

let dom_of_class t i = (class_of t i).dom

(* Domain analysis mirroring Tdfg.domain, but over e-classes. *)
let node_dom t n =
  let min_var = t.min_var in
  match n with
  | E_tensor { view; _ } | E_stream { view; _ } -> Tdfg.Finite view
  | E_const _ -> Tdfg.Infinite
  | E_cmp (_, inputs) ->
    List.fold_left
      (fun acc i ->
        match (acc, dom_of_class t i) with
        | Tdfg.Infinite, d | d, Tdfg.Infinite -> d
        | Tdfg.Finite a, Tdfg.Finite b when a == b -> acc
        | Tdfg.Finite a, Tdfg.Finite b -> (
          match Symrect.intersect ~min_var a b with
          | Some r -> Tdfg.Finite r
          | None ->
            failwith
              (Printf.sprintf "Egraph: incomparable intersection %s vs %s"
                 (Symrect.to_string a) (Symrect.to_string b))))
      Tdfg.Infinite inputs
  | E_mv { input; dim; dist } -> (
    match dom_of_class t input with
    | Tdfg.Infinite -> Tdfg.Infinite
    | Tdfg.Finite r -> Tdfg.Finite (Symrect.shift r ~dim ~dist))
  | E_bc { input; dim; lo; hi } -> (
    match dom_of_class t input with
    | Tdfg.Infinite -> Tdfg.Infinite
    | Tdfg.Finite r -> Tdfg.Finite (Symrect.with_range r ~dim ~lo ~hi))
  | E_shrink { rect; _ } -> Tdfg.Finite rect
  | E_reduce { input; dim; _ } -> (
    match dom_of_class t input with
    | Tdfg.Infinite -> failwith "Egraph: reduce over infinite domain"
    | Tdfg.Finite r -> Tdfg.Finite (Symrect.collapse r ~dim))

let grow t =
  let cap = Array.length t.parent in
  if t.n >= cap then begin
    let parent = Array.make (2 * cap) 0 in
    Array.blit t.parent 0 parent 0 t.n;
    t.parent <- parent;
    let data = Array.make (2 * cap) t.data.(0) in
    Array.blit t.data 0 data 0 t.n;
    t.data <- data
  end

let add t n =
  let n = canonicalize t n in
  match memo_find t n with
  | -1 ->
    let dom = node_dom t n in
    grow t;
    let id = t.n in
    t.n <- id + 1;
    t.parent.(id) <- id;
    t.data.(id) <- new_class n dom;
    t.classes <- t.classes + 1;
    t.nodes <- t.nodes + 1;
    memo_add t n id;
    List.iter
      (fun child ->
        let c = class_of t child in
        c.parents <- (n, id) :: c.parents;
        c.nparents <- c.nparents + 1)
      (children n);
    id
  | id -> find t id

let dom_equal a b =
  match (a, b) with
  | Tdfg.Infinite, Tdfg.Infinite -> true
  | Tdfg.Finite x, Tdfg.Finite y -> Symrect.equal x y
  | Tdfg.Infinite, Tdfg.Finite _ | Tdfg.Finite _, Tdfg.Infinite -> false

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ca = t.data.(ra) and cb = t.data.(rb) in
    if not (dom_equal ca.dom cb.dom) then
      failwith
        (Printf.sprintf "Egraph.union: domain mismatch (%s vs %s)"
           (match ca.dom with
           | Tdfg.Infinite -> "inf"
           | Tdfg.Finite r -> Symrect.to_string r)
           (match cb.dom with
           | Tdfg.Infinite -> "inf"
           | Tdfg.Finite r -> Symrect.to_string r));
    (* merge smaller into larger *)
    let keep, drop, ck, cd =
      if ca.nparents >= cb.nparents then (ra, rb, ca, cb) else (rb, ra, cb, ca)
    in
    t.parent.(drop) <- keep;
    ck.cnodes <- cd.cnodes @ ck.cnodes;
    ck.parents <- cd.parents @ ck.parents;
    ck.nparents <- ck.nparents + cd.nparents;
    cd.cnodes <- [];
    cd.parents <- [];
    cd.view_of <- [];
    cd.sorted <- [];
    t.classes <- t.classes - 1;
    t.unions <- t.unions + 1;
    t.worklist <- keep :: t.worklist;
    true
  end

(* [cnodes] canonicalized, sorted and deduplicated, from the class's view
   when that still stands. *)
let sorted_nodes t c =
  if c.view_of == c.cnodes && (c.checked = t.unions || List.for_all (is_canonical t) c.sorted)
  then begin
    c.checked <- t.unions;
    c.sorted
  end
  else begin
    let sorted = List.sort_uniq compare (List.map (canonicalize t) c.cnodes) in
    c.view_of <- c.cnodes;
    c.sorted <- sorted;
    c.checked <- t.unions;
    sorted
  end

(* [rebuild]'s per-class table of canonical parents. It is iterated, and
   its order builds the parent list and so orders later unions: the hash
   is [Hashtbl.hash], never seeded (OCAMLRUNPARAM=R randomizes only the
   polymorphic tables), and equality is [compare], as it always was. *)
module Seen = Hashtbl.Make (struct
  type t = enode

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end)

let rebuild t =
  let rec loop () =
    match t.worklist with
    | [] -> ()
    | _ ->
      let todo = List.sort_uniq compare (List.map (find t) t.worklist) in
      t.worklist <- [];
      List.iter
        (fun cls ->
          let c = class_of t cls in
          let parents = c.parents in
          c.parents <- [];
          c.nparents <- 0;
          let seen = Seen.create 16 in
          List.iter
            (fun (pnode, pid) ->
              let canon = canonicalize t pnode in
              (* a parent whose children did not move keeps its hashcons
                 entry, whose class is already [pid]'s *)
              let moved = canon != pnode in
              if moved then memo_remove t pnode;
              (match Seen.find_opt seen canon with
               | Some other -> ignore (union t pid other)
               | None -> Seen.replace seen canon (find t pid));
              if moved then begin
                let existing = memo_find t canon in
                if existing >= 0 && find t existing <> find t pid then
                  ignore (union t existing pid);
                memo_replace t canon (find t pid)
              end)
            parents;
          (* store canonicalized parent list back on the root *)
          let root = class_of t cls in
          Seen.iter
            (fun pn pid ->
              root.parents <- (pn, pid) :: root.parents;
              root.nparents <- root.nparents + 1)
            seen;
          (* canonicalize the class's own nodes *)
          let before = List.length root.cnodes in
          let sorted = sorted_nodes t root in
          root.cnodes <- sorted;
          root.view_of <- sorted;
          t.nodes <- t.nodes + List.length sorted - before)
        todo;
      loop ()
  in
  loop ()

let classes t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (if t.parent.(i) = i then i :: acc else acc)
  in
  go (t.n - 1) []

let nodes_of t id = sorted_nodes t (class_of t id)

let domain_of t id = (class_of t id).dom

let class_count t = t.classes

let node_count t = t.nodes

let of_tdfg ?min_var g =
  let t = create ?min_var ~dims:(Tdfg.lattice_dims g) () in
  let mapping = Hashtbl.create 32 in
  let map_id i = Hashtbl.find mapping i in
  List.iter
    (fun id ->
      let en =
        match Tdfg.kind g id with
        | Tdfg.Tensor { array; view; axes } -> E_tensor { array; view; axes }
        | Tdfg.Const c -> E_const c
        | Tdfg.Cmp { op; inputs } -> E_cmp (op, List.map map_id inputs)
        | Tdfg.Mv { input; dim; dist } -> E_mv { input = map_id input; dim; dist }
        | Tdfg.Bc { input; dim; lo; hi } -> E_bc { input = map_id input; dim; lo; hi }
        | Tdfg.Shrink { input; rect } -> E_shrink { input = map_id input; rect }
        | Tdfg.Reduce { op; input; dim } -> E_reduce { op; input = map_id input; dim }
        | Tdfg.Stream_load { array; view; coords } -> E_stream { array; view; coords }
      in
      Hashtbl.replace mapping id (add t en))
    (Tdfg.live_nodes g);
  (t, Hashtbl.fold (fun k v acc -> (k, v) :: acc) mapping [] |> List.sort compare)
