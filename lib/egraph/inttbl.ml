(* Slot [i] is [slots.(2i)] = key and [slots.(2i+1)] = value; a key of
   [empty] marks a free slot. The home slot of a key is the top bits of
   a multiplicative hash, so every key bit reaches the index. *)
type t = {
  mutable slots : int array;
  mutable mask : int; (* slots - 1 *)
  mutable shift : int; (* 63 - log2 slots *)
  mutable count : int;
}

let empty = -1

let create n =
  let rec size cap bits = if cap >= n then (cap, bits) else size (2 * cap) (bits + 1) in
  let cap, bits = size 16 4 in
  { slots = Array.make (2 * cap) empty; mask = cap - 1; shift = 63 - bits; count = 0 }

let length t = t.count

let capacity t = t.mask + 1

let home shift k = (k * 0x27d4eb2f165667c5) lsr shift

(* The probe loops are top-level functions: a local closure would be
   allocated on every call. *)

(* The key's slot from [i] on, or -1. A probe run ends at a free slot. *)
let rec probe s mask k i =
  let key = s.(2 * i) in
  if key = empty then -1 else if key = k then i else probe s mask k ((i + 1) land mask)

let slot t k = probe t.slots t.mask k (home t.shift k)

let find t k =
  let i = slot t k in
  if i < 0 then -1 else t.slots.((2 * i) + 1)

let rec free s mask i = if s.(2 * i) = empty then i else free s mask ((i + 1) land mask)

(* Store into the first free slot of the key's probe run. *)
let insert s mask shift k v =
  let i = free s mask (home shift k) in
  s.(2 * i) <- k;
  s.((2 * i) + 1) <- v

let grow t =
  let old = t.slots in
  let cap = 2 * (t.mask + 1) in
  let s = Array.make (2 * cap) empty in
  t.slots <- s;
  t.mask <- cap - 1;
  t.shift <- t.shift - 1;
  for i = 0 to (Array.length old / 2) - 1 do
    if old.(2 * i) <> empty then insert s t.mask t.shift old.(2 * i) old.((2 * i) + 1)
  done

let add t k v =
  if k < 0 || v < 0 then invalid_arg "Inttbl.add: negative key or value";
  if 4 * (t.count + 1) > 3 * (t.mask + 1) then grow t;
  insert t.slots t.mask t.shift k v;
  t.count <- t.count + 1

let replace t k v =
  let i = slot t k in
  if i < 0 then add t k v
  else if v < 0 then invalid_arg "Inttbl.replace: negative value"
  else t.slots.((2 * i) + 1) <- v

(* Backward-shift deletion: walk the probe run after the hole and move
   back each entry whose home slot does not lie cyclically in
   (hole, its slot]; the run then reads as if the key had never been
   added. *)
let rec shift_back s mask shift hole j =
  let j = (j + 1) land mask in
  let k = s.(2 * j) in
  if k = empty then s.(2 * hole) <- empty
  else if (j - home shift k) land mask >= (j - hole) land mask then begin
    s.(2 * hole) <- k;
    s.((2 * hole) + 1) <- s.((2 * j) + 1);
    shift_back s mask shift j j
  end
  else shift_back s mask shift hole j

let remove t k =
  let i = slot t k in
  if i >= 0 then begin
    shift_back t.slots t.mask t.shift i i;
    t.count <- t.count - 1
  end
