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

(* Structural hash and equality for the hashcons. The leaf constructors
   (which may carry a float) keep the polymorphic ones, so equality is
   exactly [compare a b = 0]. [Op.t] is an enumeration, so [==] is its
   equality; the hash leaves it out, as nodes differing only in their op
   are rare. *)
module Node = struct
  type t = enode

  let mix h x = (h * 0x2c1b3c6d) + x

  let hash = function
    | E_cmp (_, inputs) -> List.fold_left mix 2 inputs land max_int
    | E_mv { input; dim; dist } -> mix (mix (mix 3 input) dim) dist land max_int
    | E_bc { input; dim; lo; hi } ->
      mix (mix (mix (mix 4 input) dim) (Hashtbl.hash lo)) (Hashtbl.hash hi)
      land max_int
    | E_shrink { input; rect } -> mix (mix 5 input) (Hashtbl.hash rect) land max_int
    | E_reduce { input; dim; _ } -> mix (mix 6 input) dim land max_int
    | (E_tensor _ | E_const _ | E_stream _) as n -> Hashtbl.hash n

  let equal a b =
    a == b
    ||
    match (a, b) with
    | E_cmp (o1, l1), E_cmp (o2, l2) -> o1 == o2 && List.equal Int.equal l1 l2
    | E_mv a, E_mv b -> a.input = b.input && a.dim = b.dim && a.dist = b.dist
    | E_bc a, E_bc b ->
      a.input = b.input && a.dim = b.dim && Symaff.equal a.lo b.lo
      && Symaff.equal a.hi b.hi
    | E_shrink a, E_shrink b -> a.input = b.input && Symrect.equal a.rect b.rect
    | E_reduce a, E_reduce b -> a.op == b.op && a.input = b.input && a.dim = b.dim
    | (E_tensor _ | E_const _ | E_stream _), _ -> compare a b = 0
    | (E_cmp _ | E_mv _ | E_bc _ | E_shrink _ | E_reduce _), _ -> false
end

module Memo = Hashtbl.Make (Node)

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
  memo : eid Memo.t;
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
    memo = Memo.create 128;
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
  match Memo.find_opt t.memo n with
  | Some id -> find t id
  | None ->
    let dom = node_dom t n in
    grow t;
    let id = t.n in
    t.n <- id + 1;
    t.parent.(id) <- id;
    t.data.(id) <- new_class n dom;
    t.classes <- t.classes + 1;
    t.nodes <- t.nodes + 1;
    Memo.replace t.memo n id;
    List.iter
      (fun child ->
        let c = class_of t child in
        c.parents <- (n, id) :: c.parents;
        c.nparents <- c.nparents + 1)
      (children n);
    id

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
          let seen = Hashtbl.create 16 in
          List.iter
            (fun (pnode, pid) ->
              let canon = canonicalize t pnode in
              Memo.remove t.memo pnode;
              (match Hashtbl.find_opt seen canon with
               | Some other -> ignore (union t pid other)
               | None -> Hashtbl.replace seen canon (find t pid));
              (match Memo.find_opt t.memo canon with
               | Some existing when find t existing <> find t pid ->
                 ignore (union t existing pid)
               | _ -> ());
              Memo.replace t.memo canon (find t pid))
            parents;
          (* store canonicalized parent list back on the root *)
          let root = class_of t cls in
          Hashtbl.iter
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
