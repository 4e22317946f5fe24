(** Persistent content-addressed object store.

    Layout under the store directory:

    {v
    objects/<first two hex chars>/<key>   one entry per file
    tmp/                                  staging for atomic writes
    quarantine/                           corrupt entries, moved aside
    v}

    Each entry file is a versioned header line, the key on its own
    line, then the payload. Writes go through a temp file in [tmp/]
    followed by [rename], so readers never observe a torn entry and
    concurrent writers of the same key race benignly (last rename
    wins). A version-mismatched entry is silently removed on read (the
    format changed: invalidate); an entry that fails header or key
    validation is moved to [quarantine/] for post-mortem rather than
    crashing the checker. All store operations are best-effort: I/O
    errors degrade to misses or no-ops, never exceptions.

    {2 Retention}

    A store opened with a {!budget} stays bounded: entries older than
    [max_age_s] are dropped (an expired entry reads as a miss even
    before any sweep runs), and when total object bytes exceed
    [max_bytes] the least-recently-used entries are evicted until the
    store fits ([get] refreshes an entry's mtime, which is the
    eviction order). The budget is an inclusive ceiling: an entry set
    exactly at [max_bytes] is kept. Quarantined and staging files are
    never counted against the budget.

    {2 Concurrent writers}

    One handle is domain-safe (an internal mutex serializes access).
    Two {e processes} sharing a directory — the resident [entangle
    serve] daemon and a CLI run — are safe by construction: writes
    land by atomic rename, a read of a concurrently evicted entry
    degrades to a miss, and eviction sweeps re-walk the directory
    rather than trusting any handle's running byte estimate, so stale
    accounting can cost an extra walk but never deletes a fresh entry
    it should have kept. *)

type t

val version : string
(** The header line, ["entangle-cache/1"]. Bump on any format change:
    old entries then self-invalidate on first read. *)

type budget = { max_bytes : int option; max_age_s : float option }
(** Retention policy: maximum total object bytes (inclusive), and
    maximum entry age in seconds since last use. [None] = unbounded. *)

val env_budget : unit -> budget
(** The budget the environment requests:
    [$ENTANGLE_CACHE_MAX_BYTES] and [$ENTANGLE_CACHE_MAX_AGE_S]
    (non-positive or unparsable values are ignored). The default of
    {!open_}. *)

val default_dir : unit -> string
(** [$ENTANGLE_CACHE_DIR], else [$XDG_CACHE_HOME/entangle], else
    [$HOME/.cache/entangle], else a directory under the system temp
    dir. *)

val open_ : ?dir:string -> ?budget:budget -> unit -> (t, string) result
(** Create (mkdir -p) and open the store; [dir] defaults to
    {!default_dir}, [budget] to {!env_budget} (which is unbounded when
    neither variable is set — the pre-budget behavior). [Error] when
    the directory cannot be created or is not writable. *)

val dir : t -> string
val budget : t -> budget

val get : t -> key:string -> string option
(** The payload for [key], or [None] on miss. A hit refreshes the
    entry's recency. Side effects on bad entries: wrong version —
    removed; unrecognizable header or key mismatch — quarantined;
    older than the budget's age bound — removed (counted expired). *)

val put : t -> key:string -> string -> (unit, string) result
(** Atomically write the payload under [key] (tmp + rename). When the
    write pushes the store past its byte budget, a retention sweep
    runs before returning. *)

type stats = {
  entries : int;
  bytes : int;  (** total payload+header bytes across entries *)
  shards : int;
  quarantined : int;
  max_bytes : int option;  (** the handle's byte budget *)
  max_age_s : float option;  (** the handle's age bound *)
  evicted_entries : int;
      (** LRU evictions performed through this handle *)
  evicted_bytes : int;
  expired_entries : int;
      (** age-bound removals performed through this handle *)
}

val stats : t -> stats

val clear : t -> int
(** Remove every entry (and stale temp files); returns the number of
    entries removed. Quarantined files are kept. *)

type gc_result = {
  expired : int;  (** entries dropped by the age bound *)
  evicted : int;  (** entries evicted (LRU) to fit the byte budget *)
  freed_bytes : int;  (** bytes reclaimed by eviction *)
  remaining_entries : int;
  remaining_bytes : int;
}

val gc : ?budget:budget -> t -> gc_result
(** One-shot retention sweep (the [entangle cache verify --gc] path
    for non-resident users): apply [budget] (default: the handle's)
    and clean stale temp files. A no-op on an unbounded budget. *)

(** {2 Portable archives}

    A plain-text, length-prefixed dump of every {e valid} entry:
    reading goes through {!get}, so version-skewed entries
    self-invalidate, damaged entries quarantine and expired entries
    miss — none of them can reach an archive. Importing re-[put]s each
    entry (atomic writes, budget sweeps apply). *)

val archive_header : string
(** First line of an archive, ["entangle-cache-archive/1"]. *)

val export_all : t -> string * int
(** The archive text and the number of entries it carries. *)

val import_all :
  ?check:(key:string -> string -> bool) ->
  t ->
  string ->
  (int * int, string) result
(** [(imported, rejected)]: entries failing [check] (default: accept
    all) are skipped and counted in [rejected]; a malformed or
    truncated archive is an [Error] (entries already imported stay).
    Archives are untrusted input: a key that is not lowercase hex of a
    sane width (2–128 chars) is rejected before it can name a file, so
    a hostile archive cannot steer {!put} outside the store directory
    with ['/'] or [".."] in a key. *)

type verify_result = { checked : int; ok : int; invalid : int }

val verify : t -> check:(key:string -> string -> bool) -> verify_result
(** Read every entry through {!get} (which already removes or
    quarantines version/header damage), then run [check] on the
    payload; entries failing [check] are quarantined and counted in
    [invalid]. *)
