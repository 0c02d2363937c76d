(* [pending] holds the keys some caller is computing; callers that miss
   one of them sleep on [computed] until the computing caller publishes
   its value or gives up. *)
type 'v shard = {
  m : Mutex.t;
  tbl : (string, 'v) Hashtbl.t;
  pending : (string, unit) Hashtbl.t;
  computed : Condition.t;
}

type 'v t = {
  shards : 'v shard array;
  capacity : int;
  (* entries across all shards, plus slots reserved by in-flight stores *)
  size : int Atomic.t;
  evict_lock : Mutex.t;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  evict_count : int Atomic.t;
}

let create ?(shards = 16) ?(capacity = max_int) () =
  {
    shards =
      Array.init (max 1 shards) (fun _ ->
          {
            m = Mutex.create ();
            tbl = Hashtbl.create 16;
            pending = Hashtbl.create 4;
            computed = Condition.create ();
          });
    capacity = max 1 capacity;
    size = Atomic.make 0;
    evict_lock = Mutex.create ();
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    evict_count = Atomic.make 0;
  }

(* The shard comes from the hash's high bits: a shard's Hashtbl picks
   buckets by the low bits of the same hash, so sharding on those would
   crowd each shard's keys into a fraction of its buckets. *)
let shard_of t key = t.shards.((Hashtbl.hash key lsr 16) mod Array.length t.shards)

let lookup s key = Mutex.protect s.m (fun () -> Hashtbl.find_opt s.tbl key)

(* Drop every entry, one shard lock at a time; callers hold [evict_lock]. *)
let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          ignore (Atomic.fetch_and_add t.size (-Hashtbl.length s.tbl));
          Hashtbl.reset s.tbl))
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
let rec store t s key v =
  let kept =
    Mutex.protect s.m (fun () ->
        match Hashtbl.find_opt s.tbl key with
        | Some winner -> Some winner
        | None ->
          if Atomic.fetch_and_add t.size 1 < t.capacity then begin
            Hashtbl.replace s.tbl key v;
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
    store t s key v

let find_opt t key =
  let r = lookup (shard_of t key) key in
  Atomic.incr (if r = None then t.miss_count else t.hit_count);
  r

(* Under the shard lock: the stored value, waiting for it while another
   caller computes [key]; otherwise [None], and the caller has claimed
   [key]. A hit costs what [lookup] costs. *)
let rec find_or_claim s key =
  match Hashtbl.find_opt s.tbl key with
  | Some v -> Some v
  | None when Hashtbl.mem s.pending key ->
    Condition.wait s.computed s.m;
    find_or_claim s key
  | None ->
    Hashtbl.replace s.pending key ();
    None

let release s key =
  Mutex.protect s.m (fun () ->
      Hashtbl.remove s.pending key;
      Condition.broadcast s.computed)

let find_or_compute t ~key f =
  let s = shard_of t key in
  match Mutex.protect s.m (fun () -> find_or_claim s key) with
  | Some v ->
    Atomic.incr t.hit_count;
    (v, true)
  | None -> (
    Atomic.incr t.miss_count;
    (* compute outside the lock: a long compile must not serialize the
       shard, only the callers that want the same key *)
    match f () with
    | v ->
      let v = store t s key v in
      release s key;
      (v, false)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release s key;
      Printexc.raise_with_backtrace e bt)

(* Deterministic iteration: snapshot every shard under its lock, then fold
   in sorted-key order — callers persist cache contents and need stable
   bytes regardless of shard layout or insertion order. *)
let fold f t init =
  let entries =
    Array.fold_left
      (fun acc s ->
        Mutex.protect s.m (fun () ->
            Hashtbl.fold (fun k v l -> (k, v) :: l) s.tbl acc))
      [] t.shards
  in
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  List.fold_left (fun acc (k, v) -> f k v acc) init entries

let insert t ~key v = ignore (store t (shard_of t key) key v)

let length t =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.m (fun () -> Hashtbl.length s.tbl))
    0 t.shards

let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count
let evictions t = Atomic.get t.evict_count

let reset t =
  Mutex.protect t.evict_lock (fun () -> clear t);
  Atomic.set t.hit_count 0;
  Atomic.set t.miss_count 0;
  Atomic.set t.evict_count 0
