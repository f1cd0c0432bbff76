(** The campaign results store as a subsystem: a sharded on-disk record
    directory behind a bounded in-memory index, safe for concurrent
    readers and writers in one process and across processes.

    {b Layout.} One JSON record per {!Spec.cell_key} digest, sharded by
    the first two hex characters of the key:
    [store/<2-hex>/<key>.json]. 256 shards bound the per-directory
    fan-out at any store size, and a lookup is one path probe — no
    directory listing. Stores written by the flat pre-shard layout
    ([store/<key>.json]) are migrated on open (rename into shards;
    records a racing opener already moved, and files not named by a
    key, are skipped), and unmigrated flat records still hit via a
    fallback probe, so an old store is usable mid-migration.

    {b Keys.} A key is a {!Spec.cell_key} digest: 32 lowercase hex
    characters. Anything else names no record: {!find} and {!contains}
    read it as a miss without touching the disk, and {!add} refuses it.

    {b Index.} Loaded ratios are cached in a bounded in-memory index with
    FIFO eviction (insertion-order ring). Campaign queries read each key
    once, so recency tracking buys nothing over insertion order; repeated
    warm queries stay fully indexed up to [capacity]. The index keeps one
    slot per ring position in pointer-free arrays — the raw 16-byte
    digest, the ratio, and an open-addressing table — 35 to 44 bytes per
    entry. The arrays grow by a quarter at a time up to [capacity], so a
    fresh store holds no index memory whatever its capacity. The index is
    an optimisation only — an evicted or never-loaded key falls back to
    its record file.

    {b Writes.} Atomic temp + rename, with process-unique temp names
    (pid + counter): concurrent clients querying the same spec race on
    the same key, and records are deterministic, so racing writers
    produce byte-identical files and the last rename wins harmlessly.
    A corrupt or truncated record always demotes to a miss. *)

type t

val open_ : ?capacity:int -> string -> t
(** Open (creating if missing) the store rooted at a directory, migrating
    any flat-layout records into shards. [capacity] bounds the in-memory
    index (default 65536 entries). *)

val dir : t -> string

val find : t -> string -> float option
(** The cached waste ratio under a key: from the index, else from the
    record file (indexing it), else [None]. Malformed records and
    malformed keys are misses. Thread-safe; file reads happen outside the
    store lock. *)

val contains : t -> string -> bool
(** Whether a record exists (index or disk), without reading it; [false]
    for a malformed key. *)

val add : t -> key:string -> ratio:float -> Cocheck_obs.Json.t -> unit
(** Persist a record atomically under its shard and index its ratio.
    Raises [Invalid_argument] if [key] is not a 32-hex digest. *)

val path_of_key : t -> string -> string
(** The sharded record path of a key (exists or not). *)

val flat_path : t -> string -> string
(** The record path under the legacy flat layout (test/migration aid). *)

val record_count : t -> int
(** Records on disk, across all shards (scans the directory tree). *)

val iter_keys : t -> (string -> unit) -> unit
(** Every record key on disk, any order. *)

val compact : t -> int
(** Remove orphaned [*.tmp] files left by crashed writers; returns the
    number removed. Call on a quiescent store (live writers' temps are
    process-unique and short-lived, but compacting mid-write can still
    race a rename). *)

type stats = {
  hits : int;  (** index hits *)
  misses : int;  (** keys found neither in index nor on disk *)
  loads : int;  (** records read from disk into the index *)
  writes : int;  (** records persisted *)
  evictions : int;  (** index entries dropped by the FIFO ring *)
  migrated : int;  (** flat-layout records moved into shards at open *)
}

val stats : t -> stats

val indexed : t -> int
(** Live index entries (≤ capacity). *)
