(* Each shard is a chained hash table of its own, so the one hash a lookup
   computes picks both the shard (high bits) and the bucket (low bits):
   [Hashtbl] would hash the key again. A shard's [pending] lists the keys
   some caller is computing; callers that miss one of them sleep on
   [computed] until the computing caller publishes its value or gives
   up. *)
type ('k, 'v) bucket =
  | Nil
  | Cons of { key : 'k; hash : int; value : 'v; next : ('k, 'v) bucket }

type ('k, 'v) shard = {
  m : Mutex.t;
  mutable buckets : ('k, 'v) bucket array; (* length a power of two *)
  mutable count : int;
  mutable pending : 'k list;
  computed : Condition.t;
}

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  shards : ('k, 'v) shard array;
  capacity : int;
  (* entries across all shards, plus slots reserved by in-flight stores *)
  size : int Atomic.t;
  evict_lock : Mutex.t;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  evict_count : int Atomic.t;
}

let initial_buckets = 16

let create ?(shards = 16) ?(capacity = max_int) ?(hash = Hashtbl.hash) ?(equal = ( = )) ()
    =
  {
    hash;
    equal;
    shards =
      Array.init (max 1 shards) (fun _ ->
          {
            m = Mutex.create ();
            buckets = Array.make initial_buckets Nil;
            count = 0;
            pending = [];
            computed = Condition.create ();
          });
    capacity = max 1 capacity;
    size = Atomic.make 0;
    evict_lock = Mutex.create ();
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    evict_count = Atomic.make 0;
  }

(* The shard comes from the hash's high bits: its buckets are picked by
   the low bits of the same hash, so sharding on those would crowd each
   shard's keys into a fraction of its buckets. *)
let shard_of t h = t.shards.((h lsr 16) mod Array.length t.shards)

(* Under the shard lock. Raises [Not_found], so a hit allocates nothing. *)
let rec find_in equal h key = function
  | Nil -> raise Not_found
  | Cons c -> if c.hash = h && equal c.key key then c.value else find_in equal h key c.next

let find t s h key = find_in t.equal h key (Array.unsafe_get s.buckets (h land (Array.length s.buckets - 1)))

let add s h key value =
  let mask = Array.length s.buckets - 1 in
  s.buckets.(h land mask) <- Cons { key; hash = h; value; next = s.buckets.(h land mask) };
  s.count <- s.count + 1;
  if s.count > 2 * Array.length s.buckets then begin
    let old = s.buckets in
    let mask = (2 * Array.length old) - 1 in
    let buckets = Array.make (mask + 1) Nil in
    let rec move = function
      | Nil -> ()
      | Cons c ->
        buckets.(c.hash land mask) <- Cons { c with next = buckets.(c.hash land mask) };
        move c.next
    in
    Array.iter move old;
    s.buckets <- buckets
  end

(* Drop every entry, one shard lock at a time; callers hold [evict_lock]. *)
let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          ignore (Atomic.fetch_and_add t.size (-s.count));
          s.buckets <- Array.make initial_buckets Nil;
          s.count <- 0))
    t.shards

(* Two stores that find the table full at once evict it once: the second
   sees room again. *)
let evict t =
  Mutex.protect t.evict_lock (fun () ->
      if Atomic.get t.size >= t.capacity then begin
        clear t;
        Atomic.incr t.evict_count
      end)

(* Publish [v] unless [key] is already present (the first store wins) and
   return the kept value. A slot is reserved before the insert, so the
   table never holds more than [capacity] entries; a full table is
   dropped whole and the store retried. *)
let rec store t s h key v =
  let kept =
    Mutex.protect s.m (fun () ->
        match find t s h key with
        | winner -> Some winner
        | exception Not_found ->
          if Atomic.fetch_and_add t.size 1 < t.capacity then begin
            add s h key v;
            Some v
          end
          else begin
            Atomic.decr t.size;
            None
          end)
  in
  match kept with
  | Some v -> v
  | None ->
    evict t;
    store t s h key v

let release s key =
  Mutex.protect s.m (fun () ->
      s.pending <- List.filter (fun k -> k != key) s.pending;
      Condition.broadcast s.computed)

(* Called with the shard lock held after [key] was not found; returns with
   it released. Waits while another caller computes [key], else claims
   [key] and computes it outside the lock: a long compile must not
   serialize the shard, only the callers that want the same key. *)
let rec miss t s h key f =
  if List.exists (fun k -> t.equal k key) s.pending then begin
    Condition.wait s.computed s.m;
    match find t s h key with
    | v ->
      Mutex.unlock s.m;
      Atomic.incr t.hit_count;
      (v, true)
    | exception Not_found -> miss t s h key f
  end
  else begin
    s.pending <- key :: s.pending;
    Mutex.unlock s.m;
    Atomic.incr t.miss_count;
    match f () with
    | v ->
      let v = store t s h key v in
      release s key;
      (v, false)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release s key;
      Printexc.raise_with_backtrace e bt
  end

(* The hit path of [get] and [find_or_compute]: one hash, the shard lock
   taken and dropped without a closure, and no option. *)
let get t key f =
  let h = t.hash key in
  let s = shard_of t h in
  Mutex.lock s.m;
  match find t s h key with
  | v ->
    Mutex.unlock s.m;
    Atomic.incr t.hit_count;
    v
  | exception Not_found -> fst (miss t s h key f)

let find_or_compute t ~key f =
  let h = t.hash key in
  let s = shard_of t h in
  Mutex.lock s.m;
  match find t s h key with
  | v ->
    Mutex.unlock s.m;
    Atomic.incr t.hit_count;
    (v, true)
  | exception Not_found -> miss t s h key f

let find_opt t key =
  let h = t.hash key in
  let s = shard_of t h in
  let r = Mutex.protect s.m (fun () -> match find t s h key with v -> Some v | exception Not_found -> None) in
  Atomic.incr (if r = None then t.miss_count else t.hit_count);
  r

let insert t ~key v =
  let h = t.hash key in
  ignore (store t (shard_of t h) h key v)

(* Deterministic iteration: snapshot every shard under its lock, then fold
   in sorted-key order — callers persist cache contents and need stable
   bytes regardless of shard layout or insertion order. *)
let fold f t init =
  let rec collect acc = function
    | Nil -> acc
    | Cons c -> collect ((c.key, c.value) :: acc) c.next
  in
  let entries =
    Array.fold_left
      (fun acc s -> Mutex.protect s.m (fun () -> Array.fold_left collect acc s.buckets))
      [] t.shards
  in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  List.fold_left (fun acc (k, v) -> f k v acc) init entries

let length t = Array.fold_left (fun acc s -> acc + Mutex.protect s.m (fun () -> s.count)) 0 t.shards
let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count
let evictions t = Atomic.get t.evict_count

let reset t =
  Mutex.protect t.evict_lock (fun () -> clear t);
  Atomic.set t.hit_count 0;
  Atomic.set t.miss_count 0;
  Atomic.set t.evict_count 0
