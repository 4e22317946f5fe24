(** Persistent content-addressed object store.

    Layout under the store directory:

    {v
    objects/<first two hex chars>/<key>   a link to the pack holding key
    tmp/                                  staging for atomic writes
    quarantine/                           damaged links, moved aside
    v}

    Entries are written in {e packs}: one file per write, holding a
    versioned header line and then, per entry, the key, the decimal
    payload length and the payload, each followed by a newline (the
    record framing of {!export_all}'s archives). A pack is
    hard-linked under every key it holds, so a reader still finds an
    entry by its path, and a check that stores hundreds of entries
    creates one file instead of hundreds. Each link is made to a fresh
    name in [tmp/] and then renamed over the key, so readers never
    observe a torn entry and concurrent writers of the same key race
    benignly (last rename wins). Where [link] is refused (the
    filesystem forbids hard links, or the pack has too many), each
    remaining entry is written as a one-record pack of its own and
    moved into place by [rename]: the same format and read path, at
    the cost of one file per entry.

    A version-mismatched pack is silently removed on read (the format
    changed: invalidate — a store written by an older build misses
    once); a link whose pack has no recognizable header or does not
    hold its key is moved to [quarantine/] for post-mortem rather than
    crashing the checker, and its siblings stay readable. All store
    operations are best-effort: I/O errors degrade to misses or no-ops,
    never exceptions.

    {2 Retention}

    A store opened with a {!budget} stays bounded: packs older than
    [max_age_s] are dropped (an expired entry reads as a miss even
    before any sweep runs), and when total object bytes exceed
    [max_bytes] the least-recently-used packs are evicted until the
    store fits. Recency is per pack: [get] refreshes the mtime of the
    pack it read, which every entry of that pack shares, and the sweep
    evicts whole packs, oldest mtime first. So a byte budget smaller
    than one check's pack keeps none of it. A pack's bytes count once,
    however many keys link it, and are freed only when its last link
    under [objects/] goes. The budget is an inclusive ceiling: a store
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
    it should have kept. A handle remembers the records of the last
    pack it parsed, identified by device, inode, size and mtime, so a
    warm check reads its pack once; a pack rewritten in place changes
    its mtime and is read again. *)

type t

val version : string
(** The header line, ["entangle-cache/2"]. Bump on any format change:
    old entries then self-invalidate on first read. *)

type budget = { max_bytes : int option; max_age_s : float option }
(** Retention policy: maximum total object bytes (inclusive), and
    maximum entry age in seconds since last use. [None] = unbounded. *)

val env_budget : unit -> budget
(** The budget the environment requests:
    [$ENTANGLE_CACHE_MAX_BYTES] and [$ENTANGLE_CACHE_MAX_AGE_S]
    (non-positive or unparsable values are ignored). The default of
    {!open_}. *)

val open_ : ?dir:string -> ?budget:budget -> unit -> (t, string) result
(** Create (mkdir -p) and open the store; [dir] defaults to
    [$ENTANGLE_CACHE_DIR], else [$XDG_CACHE_HOME/entangle], else
    [$HOME/.cache/entangle], else a directory under the system temp
    dir; [budget] defaults to {!env_budget} (which is unbounded when
    neither variable is set — the pre-budget behavior). [Error] when
    the directory cannot be created or is not writable. *)

val dir : t -> string
val budget : t -> budget

val get : t -> key:string -> string option
(** The payload for [key], or [None] on miss. A miss costs one [stat];
    a hit on the pack the handle parsed last costs no read. A hit
    refreshes its pack's recency. Side effects on bad entries: wrong
    version — removed; unrecognizable header, or a pack without the
    key — the link quarantined; older than the budget's age bound —
    removed (counted expired). *)

val put_all : t -> (string * string) list -> (int, string) result
(** Atomically write [(key, payload)] entries as one pack linked under
    every key, and return the bytes written. When a key repeats, its
    last payload wins. When the write pushes the store past its byte
    budget, a retention sweep runs before returning. [Ok 0] on an
    empty list. *)

val put : t -> key:string -> string -> (unit, string) result
(** [put_all] of one entry. *)

type stats = {
  entries : int;  (** keys under [objects/] *)
  bytes : int;  (** total bytes of the packs they link, each pack once *)
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
  evicted : int;  (** entries evicted (LRU, by pack) to fit the byte budget *)
  freed_bytes : int;  (** bytes of the packs eviction removed *)
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
    miss — none of them can reach an archive. Importing writes the
    archive's entries as one pack ({!put_all}: atomic writes, budget
    sweeps apply). *)

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
    truncated archive is an [Error], and the entries before the
    framing fault are still imported.
    Archives are untrusted input: a key that is not lowercase hex of a
    sane width (2–128 chars) is rejected before it can name a file, so
    a hostile archive cannot steer a write outside the store directory
    with ['/'] or [".."] in a key. *)

type verify_result = { checked : int; ok : int; invalid : int }

val verify : t -> check:(key:string -> string -> bool) -> verify_result
(** Read every entry through {!get} (which already removes or
    quarantines version/header damage), then run [check] on the
    payload; entries failing [check] are quarantined and counted in
    [invalid]. *)
