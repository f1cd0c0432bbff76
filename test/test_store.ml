(* Tests for the sharded results store: concurrent writers racing on the
   same keys, corrupt/truncated records demoting to a miss under a live
   reader, migration from the flat pre-shard layout, index eviction
   bounds, orphan-tmp compaction, the compact index against a Hashtbl +
   FIFO model, digest-only keys, and index memory per entry. *)

module Json = Cocheck_obs.Json
module E = Cocheck_experiments

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "cocheck-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* 32-hex keys shaped like Spec.cell_key digests. *)
let key_of i = Printf.sprintf "%032x" (i * 0x9e3779b9)
let ratio_of i = 0.01 *. float_of_int (i mod 97)

let record ~key ratio =
  Json.Obj
    [
      ("schema", Json.String "cocheck.cell-result");
      ("key", Json.String key);
      ("waste_ratio", Json.Float ratio);
    ]

let add store i =
  let key = key_of i in
  E.Store.add store ~key ~ratio:(ratio_of i) (record ~key (ratio_of i))

(* ------------------------------------------------------------------ *)

let test_sharded_layout () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      add store 1;
      let key = key_of 1 in
      let path = E.Store.path_of_key store key in
      Alcotest.(check string) "record lands in its 2-hex shard"
        (Filename.concat (Filename.concat dir (String.sub key 0 2)) (key ^ ".json"))
        path;
      Alcotest.(check bool) "record file exists" true (Sys.file_exists path);
      Alcotest.(check (option (float 0.0))) "find returns the ratio" (Some (ratio_of 1))
        (E.Store.find store key);
      Alcotest.(check int) "one record on disk" 1 (E.Store.record_count store);
      (* A fresh open (cold index) reads the same record from disk. *)
      let reopened = E.Store.open_ dir in
      Alcotest.(check (option (float 0.0))) "fresh open reads it back" (Some (ratio_of 1))
        (E.Store.find reopened key);
      Alcotest.(check int) "disk read counted as a load" 1 (E.Store.stats reopened).E.Store.loads)

let test_racing_writers () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      let n_keys = 25 and n_threads = 8 in
      (* Every thread writes every key: maximal same-key contention. The
         records are deterministic, so whichever rename lands last must
         leave the canonical bytes. *)
      let worker _ = for i = 0 to n_keys - 1 do add store i done in
      let threads = List.init n_threads (fun t -> Thread.create worker t) in
      List.iter Thread.join threads;
      Alcotest.(check int) "one record per key survives the race" n_keys
        (E.Store.record_count store);
      Alcotest.(check int) "no orphan temps after clean writers" 0 (E.Store.compact store);
      (* Read everything back through a cold index: every surviving file
         must be intact JSON with the deterministic ratio. *)
      let cold = E.Store.open_ dir in
      for i = 0 to n_keys - 1 do
        Alcotest.(check (option (float 0.0)))
          (Printf.sprintf "key %d intact after racing writers" i)
          (Some (ratio_of i))
          (E.Store.find cold (key_of i))
      done)

let test_corrupt_record_demotes_live_reader () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      add store 1;
      add store 2;
      (* A separate reading process: fresh store, cold index. *)
      let reader = E.Store.open_ dir in
      (* A live reader hammers a healthy key while we corrupt another. *)
      let stop = Atomic.make false in
      let healthy_ok = Atomic.make true in
      let th =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              if E.Store.find reader (key_of 1) <> Some (ratio_of 1) then
                Atomic.set healthy_ok false;
              Thread.yield ()
            done)
          ()
      in
      let corrupt path bytes =
        let oc = open_out path in
        output_string oc bytes;
        close_out oc
      in
      (* Truncated JSON. *)
      corrupt (E.Store.path_of_key reader (key_of 2)) "{\"waste_ratio\": 0.1";
      Alcotest.(check (option (float 0.0))) "truncated record is a miss" None
        (E.Store.find reader (key_of 2));
      (* Valid JSON, wrong shape. *)
      corrupt (E.Store.path_of_key reader (key_of 2)) "{\"schema\": \"nope\"}";
      Alcotest.(check (option (float 0.0))) "shape-less record is a miss" None
        (E.Store.find reader (key_of 2));
      Alcotest.(check bool) "misses counted" true
        ((E.Store.stats reader).E.Store.misses >= 2);
      (* Re-simulation overwrites the corpse and the key heals. *)
      add reader 2;
      Alcotest.(check (option (float 0.0))) "rewrite heals the key" (Some (ratio_of 2))
        (E.Store.find reader (key_of 2));
      Atomic.set stop true;
      Thread.join th;
      Alcotest.(check bool) "live reader never saw the healthy key corrupted" true
        (Atomic.get healthy_ok))

let test_flat_migration () =
  with_temp_dir (fun dir ->
      (* A PR 4-style flat store: every record at the root. *)
      let n = 10 in
      for i = 0 to n - 1 do
        let key = key_of i in
        let oc = open_out (Filename.concat dir (key ^ ".json")) in
        output_string oc (Json.to_string_pretty (record ~key (ratio_of i)));
        close_out oc
      done;
      let store = E.Store.open_ dir in
      Alcotest.(check int) "every flat record migrated" n
        (E.Store.stats store).E.Store.migrated;
      Alcotest.(check int) "record count unchanged" n (E.Store.record_count store);
      for i = 0 to n - 1 do
        let key = key_of i in
        Alcotest.(check bool) "flat path gone" false
          (Sys.file_exists (E.Store.flat_path store key));
        Alcotest.(check bool) "sharded path exists" true
          (Sys.file_exists (E.Store.path_of_key store key));
        Alcotest.(check (option (float 0.0))) "migrated record readable"
          (Some (ratio_of i)) (E.Store.find store key)
      done;
      (* Mid-migration straggler: a flat record appearing after open (e.g.
         written by an old process) still hits via the fallback probe. *)
      let straggler = key_of 99 in
      let oc = open_out (E.Store.flat_path store straggler) in
      output_string oc (Json.to_string_pretty (record ~key:straggler (ratio_of 99)));
      close_out oc;
      Alcotest.(check (option (float 0.0))) "unmigrated flat record still hits"
        (Some (ratio_of 99)) (E.Store.find store straggler);
      Alcotest.(check bool) "contains sees flat records too" true
        (E.Store.contains store straggler))

let test_eviction_bounds () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ ~capacity:4 dir in
      for i = 0 to 9 do add store i done;
      Alcotest.(check bool) "index stays within capacity" true (E.Store.indexed store <= 4);
      Alcotest.(check int) "overflow evicted FIFO" 6 (E.Store.stats store).E.Store.evictions;
      (* Evicted keys are still served — from disk, re-entering the index. *)
      for i = 0 to 9 do
        Alcotest.(check (option (float 0.0)))
          (Printf.sprintf "evicted key %d falls back to disk" i)
          (Some (ratio_of i)) (E.Store.find store (key_of i))
      done;
      Alcotest.(check bool) "index still bounded after re-loads" true
        (E.Store.indexed store <= 4))

let test_compact_removes_orphans () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      add store 1;
      add store 2;
      (* Litter from crashed writers: at the root and inside a shard. *)
      let orphan path =
        let oc = open_out path in
        output_string oc "{\"half\": ";
        close_out oc
      in
      orphan (E.Store.path_of_key store (key_of 1) ^ ".4242-0.tmp");
      orphan (Filename.concat dir "stale.tmp");
      Alcotest.(check int) "both orphans swept" 2 (E.Store.compact store);
      Alcotest.(check int) "records survive compaction" 2 (E.Store.record_count store);
      Alcotest.(check int) "second sweep finds nothing" 0 (E.Store.compact store))

(* ------------------------------------------------------------------ *)
(* Index: model check, digest-only keys, memory                         *)
(* ------------------------------------------------------------------ *)

(* The index model: a Hashtbl of indexed ratios plus an explicit FIFO ring
   of [capacity] key slots, over a Hashtbl standing for the record files. *)
type model = {
  m_cap : int;
  disk : (string, float) Hashtbl.t;
  index : (string, float) Hashtbl.t;
  ring : string option array;
  mutable pos : int;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_loads : int;
  mutable m_evictions : int;
}

let model cap =
  {
    m_cap = cap;
    disk = Hashtbl.create 16;
    index = Hashtbl.create 16;
    ring = Array.make cap None;
    pos = 0;
    m_hits = 0;
    m_misses = 0;
    m_loads = 0;
    m_evictions = 0;
  }

let model_remember m key ratio =
  if not (Hashtbl.mem m.index key) then begin
    Option.iter
      (fun old ->
        Hashtbl.remove m.index old;
        m.m_evictions <- m.m_evictions + 1)
      m.ring.(m.pos);
    m.ring.(m.pos) <- Some key;
    m.pos <- (m.pos + 1) mod m.m_cap
  end;
  Hashtbl.replace m.index key ratio

let model_find m key =
  match Hashtbl.find_opt m.index key with
  | Some r ->
      m.m_hits <- m.m_hits + 1;
      Some r
  | None -> (
      match Hashtbl.find_opt m.disk key with
      | Some r ->
          m.m_loads <- m.m_loads + 1;
          model_remember m key r;
          Some r
      | None ->
          m.m_misses <- m.m_misses + 1;
          None)

type op = Add of int * float | Find of int

(* Keys whose hash home — set by the top of their first 31 digest bits,
   i.e. by the fourth byte — comes from a small set including both ends
   of every table, so probe runs collide, interleave and wrap around. *)
let model_key k =
  let d = Digest.to_hex (Digest.string (string_of_int k)) in
  let high = [| 0x00; 0x01; 0x3f; 0x40; 0x7e; 0x7f; 0xff |] in
  String.sub d 0 6 ^ Printf.sprintf "%02x" high.(k mod Array.length high) ^ String.sub d 8 24

(* Capacities 1, 4, at and around the first growth steps of the slot
   arrays (16, 20, 25, 31, 38, ...), and anywhere up to 130; op sequences
   long enough to fill, wrap and re-load. *)
let arb_index_case =
  let open QCheck.Gen in
  let case =
    oneof [ oneofl [ 1; 4; 15; 16; 17; 20; 21; 25; 31; 38; 63; 64; 65 ]; int_range 1 130 ]
    >>= fun cap ->
    let keys = (2 * cap) + 3 in
    let op =
      frequency
        [
          (3, map2 (fun k r -> Add (k, r)) (int_bound (keys - 1)) (float_range 0.0 1.0));
          (2, map (fun k -> Find k) (int_bound keys));
        ]
    in
    map (fun ops -> (cap, ops)) (list_size (int_range 0 ((4 * cap) + 40)) op)
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %d: %s" cap
      (String.concat "; "
         (List.map
            (function
              | Add (k, r) -> Printf.sprintf "add %d %g" k r
              | Find k -> Printf.sprintf "find %d" k)
            ops))
  in
  QCheck.make ~print case

let test_index_matches_model =
  QCheck.Test.make ~name:"index = Hashtbl + FIFO model" ~count:60 arb_index_case
    (fun (cap, ops) ->
      with_temp_dir (fun dir ->
          let store = E.Store.open_ ~capacity:cap dir in
          let m = model cap in
          let agrees () =
            let st = E.Store.stats store in
            E.Store.indexed store = Hashtbl.length m.index
            && st.E.Store.hits = m.m_hits
            && st.E.Store.misses = m.m_misses
            && st.E.Store.loads = m.m_loads
            && st.E.Store.evictions = m.m_evictions
          in
          List.for_all
            (fun op ->
              match op with
              | Add (k, r) ->
                  let key = model_key k in
                  E.Store.add store ~key ~ratio:r (record ~key r);
                  Hashtbl.replace m.disk key r;
                  model_remember m key r;
                  agrees ()
              | Find k ->
                  let key = model_key k in
                  E.Store.find store key = model_find m key && agrees ())
            ops))

let test_overwrite_takes_no_slot () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ ~capacity:4 dir in
      for i = 0 to 3 do add store i done;
      let key = key_of 2 in
      E.Store.add store ~key ~ratio:0.5 (record ~key 0.5);
      Alcotest.(check int) "still four entries" 4 (E.Store.indexed store);
      Alcotest.(check int) "nothing evicted" 0 (E.Store.stats store).E.Store.evictions;
      Alcotest.(check (option (float 0.0))) "overwritten in place" (Some 0.5)
        (E.Store.find store key);
      for i = 0 to 3 do
        if i <> 2 then
          Alcotest.(check (option (float 0.0))) "others kept" (Some (ratio_of i))
            (E.Store.find store (key_of i))
      done;
      Alcotest.(check int) "every find an index hit" 4 (E.Store.stats store).E.Store.hits)

let test_malformed_keys () =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ dir in
      add store 1;
      let bad = [ ""; "ab"; String.uppercase_ascii (key_of 1); key_of 1 ^ "0"; "../" ^ key_of 1 ] in
      List.iter
        (fun key ->
          Alcotest.(check (option (float 0.0))) ("find misses " ^ key) None
            (E.Store.find store key);
          Alcotest.(check bool) ("contains misses " ^ key) false (E.Store.contains store key);
          Alcotest.check_raises ("add refuses " ^ key)
            (Invalid_argument "Store.add: key is not a 32-hex digest") (fun () ->
              E.Store.add store ~key ~ratio:0.1 (record ~key 0.1)))
        bad;
      Alcotest.(check int) "each bad find counted a miss" (List.length bad)
        (E.Store.stats store).E.Store.misses;
      Alcotest.(check int) "nothing written" 1 (E.Store.record_count store))

(* Bytes the index holds per entry, measured on the store's whole heap
   footprint over that of a fresh store: ≤ 48 B, even just past a growth
   step (1036 entries in 1293 slots) — the string-keyed Hashtbl and ring
   it replaced held ~85 B at 20 000 entries. *)
let bytes_per_entry ~capacity n =
  with_temp_dir (fun dir ->
      let store = E.Store.open_ ~capacity dir in
      let fresh = Obj.reachable_words (Obj.repr store) in
      for i = 0 to n - 1 do add store i done;
      Alcotest.(check int) "all indexed" n (E.Store.indexed store);
      let words = Obj.reachable_words (Obj.repr store) - fresh in
      float_of_int (words * (Sys.word_size / 8)) /. float_of_int n)

let test_index_memory () =
  List.iter
    (fun (capacity, n) ->
      let b = bytes_per_entry ~capacity n in
      if b > 48.0 then
        Alcotest.failf "capacity %d, %d entries: %.1f B per entry > 48 B" capacity n b)
    [ (65_536, 1036); (1000, 1000) ];
  with_temp_dir (fun dir ->
      let words capacity = Obj.reachable_words (Obj.repr (E.Store.open_ ~capacity dir)) in
      Alcotest.(check int) "fresh open costs the same at capacity 1 and 65536" (words 1)
        (words 65_536))

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "sharded layout and reopen" `Quick test_sharded_layout;
          Alcotest.test_case "racing writers stay atomic" `Quick test_racing_writers;
          Alcotest.test_case "corrupt record demotes under a live reader" `Quick
            test_corrupt_record_demotes_live_reader;
          Alcotest.test_case "flat-layout migration" `Quick test_flat_migration;
          Alcotest.test_case "index eviction bounds" `Quick test_eviction_bounds;
          Alcotest.test_case "compact removes orphan temps" `Quick
            test_compact_removes_orphans;
        ] );
      ( "index",
        [
          QCheck_alcotest.to_alcotest ~long:false test_index_matches_model;
          Alcotest.test_case "overwrite takes no slot" `Quick test_overwrite_takes_no_slot;
          Alcotest.test_case "malformed keys" `Quick test_malformed_keys;
          Alcotest.test_case "memory per entry" `Quick test_index_memory;
        ] );
    ]
