module Json = Cocheck_obs.Json
module Manifest = Cocheck_obs.Manifest

type stats = {
  hits : int;
  misses : int;
  loads : int;
  writes : int;
  evictions : int;
  migrated : int;
}

(* The bounded index of loaded ratios, one slot per FIFO ring position,
   in three pointer-free arrays: slot [s] holds its key's 16 raw digest
   bytes at [digests.[16s ..]] and its ratio at [ratios.(s)]; [table] is
   an open-addressing (linear probing) hash table over the slots, holding
   [s + 1] or 0 for empty. The slot arrays grow by a quarter up to
   [capacity] and the table is rebuilt at each growth, so a fresh store
   owns no index memory whatever its capacity. Slot [ring_pos] is the next
   insertion point; once all [capacity] slots are filled, inserting evicts
   that slot's previous key. O(1) per insert, no recency bookkeeping — a
   campaign reads each key once per query, so recency buys nothing over
   insertion order, and repeated warm queries stay fully indexed up to
   [capacity]. *)
type t = {
  dir : string;
  mutex : Mutex.t;
  capacity : int;
  mutable digests : Bytes.t;
  mutable ratios : Float.Array.t;
  mutable table : int array;
  mutable used : int;  (* filled slots, ≤ capacity *)
  mutable ring_pos : int;
  mutable hits : int;
  mutable misses : int;
  mutable loads : int;
  mutable writes : int;
  mutable evictions : int;
  mutable migrated : int;
}

let default_capacity = 65_536

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Keys are {!Spec.cell_key} digests: 32 lowercase hex characters. The
   first two give 256 uniformly-filled shards; the index keeps the 16 raw
   bytes. [hex_value] maps a byte to its digit value, 16 for a non-digit. *)
let hex_value =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - Char.code '0')
      | 'a' .. 'f' -> Char.chr (i - Char.code 'a' + 10)
      | _ -> '\016')

(* The raw digest of a key, or [None] when it is no key. It runs on every
   index hit, over digits in no order a branch predictor can learn, so it
   decodes by table lookup and checks all 32 digits once at the end. *)
let raw_of_key key =
  if String.length key <> 32 then None
  else begin
    let raw = Bytes.create 16 and seen = ref 0 in
    for i = 0 to 15 do
      let hi = Char.code (String.unsafe_get hex_value (Char.code (String.unsafe_get key (2 * i))))
      and lo =
        Char.code (String.unsafe_get hex_value (Char.code (String.unsafe_get key ((2 * i) + 1))))
      in
      seen := !seen lor hi lor lo;
      Bytes.unsafe_set raw i (Char.unsafe_chr (((hi lsl 4) lor lo) land 0xff))
    done;
    if !seen > 15 then None else Some raw
  end

let path_of_key t key =
  Filename.concat (Filename.concat t.dir (String.sub key 0 2)) (key ^ ".json")

(* The pre-shard (PR 4) layout kept every record at the store root. *)
let flat_path t key = Filename.concat t.dir (key ^ ".json")

let dir t = t.dir

let is_record name = Filename.check_suffix name ".json"
let key_of_name name = Filename.chop_suffix name ".json"

(* Move one flat-layout record into its shard. Racing openers both try the
   rename; the loser's [Sys_error] (source already gone) is benign. A file
   not named by a key is no record of this store and stays put. *)
let migrate_record t name =
  let key = key_of_name name in
  if Option.is_some (raw_of_key key) then begin
    let dst = path_of_key t key in
    ensure_dir (Filename.dirname dst);
    match Sys.rename (Filename.concat t.dir name) dst with
    | () -> t.migrated <- t.migrated + 1
    | exception Sys_error _ -> ()
  end

let migrate_flat t =
  match Sys.readdir t.dir with
  | entries -> Array.iter (fun name -> if is_record name then migrate_record t name) entries
  | exception Sys_error _ -> ()

let open_ ?(capacity = default_capacity) dir =
  if capacity <= 0 then invalid_arg "Store.open_: capacity must be positive";
  ensure_dir dir;
  let t =
    {
      dir;
      mutex = Mutex.create ();
      capacity;
      digests = Bytes.empty;
      ratios = Float.Array.create 0;
      table = [||];
      used = 0;
      ring_pos = 0;
      hits = 0;
      misses = 0;
      loads = 0;
      writes = 0;
      evictions = 0;
      migrated = 0;
    }
  in
  migrate_flat t;
  t

(* ------------------------------------------------------------------ *)
(* Index (callers hold [t.mutex])                                       *)
(* ------------------------------------------------------------------ *)

(* Digests are uniform: their first 31 bits, scaled to the table size by
   a multiply-shift, give the home position. So the table can have any
   size, and holds its load at 3/4 with no power-of-two rounding slack. *)
let home t bytes off =
  ((Int64.to_int (Bytes.get_int64_le bytes off) land 0x7fff_ffff) * Array.length t.table)
  lsr 31

let next t i = if i + 1 = Array.length t.table then 0 else i + 1

(* How far position [b] lies after [a] in probe order. *)
let dist t a b = if b >= a then b - a else b - a + Array.length t.table

(* [=] at type int64 compiles to an unboxed comparison. *)
let slot_matches t slot raw =
  let off = 16 * slot in
  Bytes.get_int64_ne t.digests off = Bytes.get_int64_ne raw 0
  && Bytes.get_int64_ne t.digests (off + 8) = Bytes.get_int64_ne raw 8

(* The table position holding [raw]'s slot, or of the empty entry ending
   its probe run. *)
let probe t raw =
  let rec go i =
    let e = t.table.(i) in
    if e = 0 || slot_matches t (e - 1) raw then i else go (next t i)
  in
  go (home t raw 0)

(* The slot holding [raw], or -1. *)
let lookup t raw = if t.used = 0 then -1 else t.table.(probe t raw) - 1

(* Place slot [s] (its digest already in the arena) into the table. *)
let link t s =
  let rec go i = if t.table.(i) = 0 then t.table.(i) <- s + 1 else go (next t i) in
  go (home t t.digests (16 * s))

(* Backward-shift deletion: after emptying position [i], pull later
   entries of the run back over it unless that would move one before its
   home position, so every probe run stays gap-free. *)
let unlink t s =
  let rec find i = if t.table.(i) = s + 1 then i else find (next t i) in
  let rec shift i j =
    let e = t.table.(j) in
    if e = 0 then t.table.(i) <- 0
    else if dist t (home t t.digests (16 * (e - 1))) j >= dist t i j then begin
      t.table.(i) <- e;
      shift j (next t j)
    end
    else shift i (next t j)
  in
  let i = find (home t t.digests (16 * s)) in
  shift i (next t i)

(* Growth by a quarter, not doubling: a service keeps adding keys, and
   doubling a 32 768-slot index at once, with the old arrays live while
   they are copied, showed as a 3.5 MiB step in the serving benchmark's
   peak RSS. The table keeps [slots] entries at load ≤ 3/4. *)
let grow t =
  let slots = min t.capacity (max 16 (5 * Float.Array.length t.ratios / 4)) in
  let digests = Bytes.create (16 * slots) in
  Bytes.blit t.digests 0 digests 0 (16 * t.used);
  let ratios = Float.Array.create slots in
  Float.Array.blit t.ratios 0 ratios 0 t.used;
  t.digests <- digests;
  t.ratios <- ratios;
  t.table <- Array.make ((4 * slots / 3) + 1) 0;
  for s = 0 to t.used - 1 do
    link t s
  done

(* Overwrite in place when the key is already indexed (no ring slot
   consumed); otherwise claim the next ring slot, evicting its previous
   occupant once the ring has wrapped. *)
let remember_locked t raw ratio =
  match lookup t raw with
  | s when s >= 0 -> Float.Array.set t.ratios s ratio
  | _ ->
      let s = t.ring_pos in
      if s < t.used then begin
        unlink t s;
        t.evictions <- t.evictions + 1
      end
      else begin
        if s = Float.Array.length t.ratios then grow t;
        t.used <- t.used + 1
      end;
      Bytes.blit raw 0 t.digests (16 * s) 16;
      Float.Array.set t.ratios s ratio;
      link t s;
      t.ring_pos <- (s + 1) mod t.capacity

(* A record is self-describing but only the ratio is read back; a missing,
   truncated or malformed file reads as a miss and the point re-simulates
   (the demotion contract inherited from the flat store). *)
let load_ratio path =
  if not (Sys.file_exists path) then None
  else
    match Manifest.load ~path with
    | Ok j -> Option.bind (Json.member "waste_ratio" j) Json.to_float_opt
    | Error _ -> None

let find t key =
  match raw_of_key key with
  | None ->
      Mutex.lock t.mutex;
      t.misses <- t.misses + 1;
      Mutex.unlock t.mutex;
      None
  | Some raw -> (
      Mutex.lock t.mutex;
      match lookup t raw with
      | s when s >= 0 ->
          let ratio = Float.Array.get t.ratios s in
          t.hits <- t.hits + 1;
          Mutex.unlock t.mutex;
          Some ratio
      | _ ->
          Mutex.unlock t.mutex;
          (* Disk I/O outside the lock; concurrent loads of the same key
             both read the file and converge on the same index entry. *)
          let ratio =
            match load_ratio (path_of_key t key) with
            | Some _ as r -> r
            | None -> load_ratio (flat_path t key)
          in
          Mutex.lock t.mutex;
          (match ratio with
          | Some r ->
              t.loads <- t.loads + 1;
              remember_locked t raw r
          | None -> t.misses <- t.misses + 1);
          Mutex.unlock t.mutex;
          ratio)

let contains t key =
  match raw_of_key key with
  | None -> false
  | Some raw ->
      Mutex.lock t.mutex;
      let indexed = lookup t raw >= 0 in
      Mutex.unlock t.mutex;
      indexed || Sys.file_exists (path_of_key t key) || Sys.file_exists (flat_path t key)

(* Unique temp names: concurrent clients querying the same spec race on the
   same key, so [path ^ ".tmp"] (safe when one process owned a key) would
   let one writer rename the other's half-written file. pid + counter makes
   every in-flight temp distinct; the final rename is atomic and the racing
   contents are byte-identical anyway (records are deterministic). *)
let tmp_counter = Atomic.make 0

let add t ~key ~ratio json =
  let raw =
    match raw_of_key key with
    | Some raw -> raw
    | None -> invalid_arg "Store.add: key is not a 32-hex digest"
  in
  let path = path_of_key t key in
  ensure_dir (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.%d-%d.tmp" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string_pretty json));
  Sys.rename tmp path;
  Mutex.lock t.mutex;
  t.writes <- t.writes + 1;
  remember_locked t raw ratio;
  Mutex.unlock t.mutex

let iter_shard t sub f =
  let dir = Filename.concat t.dir sub in
  match Sys.readdir dir with
  | entries -> Array.iter (fun name -> f dir name) entries
  | exception Sys_error _ -> ()

let iter_files t f =
  (match Sys.readdir t.dir with
  | entries ->
      Array.iter
        (fun name ->
          let sub = Filename.concat t.dir name in
          if Sys.is_directory sub then iter_shard t name f else f t.dir name)
        entries
  | exception Sys_error _ -> ())

let record_count t =
  let n = ref 0 in
  iter_files t (fun _ name -> if is_record name then incr n);
  !n

let iter_keys t f = iter_files t (fun _ name -> if is_record name then f (key_of_name name))

(* Crashed writers leave [*.tmp] litter behind (the rename never ran);
   compaction sweeps it. Live writers are safe: their temp names are
   process-unique and the window between create and rename is one record
   write, so anything still named [.tmp] at compaction time in a quiescent
   store is an orphan. *)
let compact t =
  let removed = ref 0 in
  iter_files t (fun dir name ->
      if Filename.check_suffix name ".tmp" then begin
        (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
        incr removed
      end);
  !removed

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      loads = t.loads;
      writes = t.writes;
      evictions = t.evictions;
      migrated = t.migrated;
    }
  in
  Mutex.unlock t.mutex;
  s

let indexed t =
  Mutex.lock t.mutex;
  let n = t.used in
  Mutex.unlock t.mutex;
  n
