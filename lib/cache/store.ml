module Failpoint = Entangle_failpoint.Failpoint

let version = "entangle-cache/2"
let version_prefix = "entangle-cache/"

(* --- retention budget ---------------------------------------------------- *)

type budget = { max_bytes : int option; max_age_s : float option }

let env_budget () =
  let pos_int name =
    match Sys.getenv_opt name with
    | Some s when s <> "" -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n > 0 -> Some n
        | _ -> None)
    | _ -> None
  in
  let pos_float name =
    match Sys.getenv_opt name with
    | Some s when s <> "" -> (
        match float_of_string_opt (String.trim s) with
        | Some f when f > 0. -> Some f
        | _ -> None)
    | _ -> None
  in
  {
    max_bytes = pos_int "ENTANGLE_CACHE_MAX_BYTES";
    max_age_s = pos_float "ENTANGLE_CACHE_MAX_AGE_S";
  }

(* A pack file's identity as [stat] reports it. A pack is never
   rewritten in place by this module, so a changed size or mtime under
   the same inode means someone else rewrote it. *)
type pack_id = { dev : int; ino : int; size : int; mtime : float }

let pack_id st =
  {
    dev = st.Unix.st_dev;
    ino = st.Unix.st_ino;
    size = st.Unix.st_size;
    mtime = st.Unix.st_mtime;
  }

(* [lock] serializes get/put and the eviction sweeps: packs are written
   whole and land by link and rename, so concurrent access would not
   corrupt the store, but the daemon's handler threads share one handle
   and the lock keeps the read-then-quarantine/stale-removal, memo and
   accounting paths free of same-file races. A {e second process} (a
   resident daemon and a CLI run sharing one directory) is safe by
   construction rather than by the lock: writes land by rename, reads
   of a concurrently evicted entry degrade to misses, and the eviction
   sweep re-walks the directory instead of trusting this handle's
   running byte estimate, so cross-process accounting drift can cost
   at most one extra walk, never a wrong deletion of a fresh entry.
   Maintenance walks (stats/clear/verify/gc) take the lock too now
   that a resident server may run them concurrently with checks. *)
type t = {
  dir : string;
  lock : Mutex.t;
  budget : budget;
  mutable approx_bytes : int;
      (* running estimate of total object bytes; only ever used to
         decide when to sweep — the sweep itself re-measures *)
  mutable evicted_entries : int;
  mutable evicted_bytes : int;
  mutable expired_entries : int;
  mutable memo : (pack_id * (string, string) Hashtbl.t) option;
      (* the records of the last pack parsed, so a warm check reads
         its pack once rather than once per key *)
}

let dir t = t.dir
let budget t = t.budget
let objects_dir t = Filename.concat t.dir "objects"
let tmp_dir t = Filename.concat t.dir "tmp"
let quarantine_dir t = Filename.concat t.dir "quarantine"

let default_dir () =
  match Sys.getenv_opt "ENTANGLE_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ ->
      let base =
        match Sys.getenv_opt "XDG_CACHE_HOME" with
        | Some d when d <> "" -> d
        | _ -> (
            match Sys.getenv_opt "HOME" with
            | Some h when h <> "" -> Filename.concat h ".cache"
            | _ -> Filename.concat (Filename.get_temp_dir_name ()) "cache")
      in
      Filename.concat base "entangle"

let rec mkdir_p d =
  if Sys.file_exists d then ()
  else begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let shard key = if String.length key >= 2 then String.sub key 0 2 else "xx"

let path t key =
  Filename.concat (Filename.concat (objects_dir t) (shard key)) key

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let remove_quietly p = try Sys.remove p with Sys_error _ -> ()

(* Moves the link, not the pack: the entry's siblings keep theirs. *)
let quarantine t p =
  let dest = Filename.concat (quarantine_dir t) (Filename.basename p) in
  mkdir_p (quarantine_dir t);
  try Sys.rename p dest with Sys_error _ -> remove_quietly p

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let list_dir d =
  match Sys.readdir d with
  | exception Sys_error _ -> []
  | entries ->
      let l = Array.to_list entries in
      List.sort String.compare l

let iter_entries t f =
  List.iter
    (fun sh ->
      let shd = Filename.concat (objects_dir t) sh in
      if (try Sys.is_directory shd with Sys_error _ -> false) then
        List.iter
          (fun name -> f ~key:name ~path:(Filename.concat shd name))
          (list_dir shd))
    (list_dir (objects_dir t))

(* --- records ------------------------------------------------------------ *)

(* Packs and archives share one framing after their header line: per
   entry, the key, the decimal payload length and the payload, each
   followed by a newline. [add] appends to a buffer or a channel. *)
let add_record add (key, payload) =
  add key;
  add "\n";
  add (string_of_int (String.length payload));
  add "\n";
  add payload;
  add "\n"

(* Calls [f key payload] on each record of [text] from offset [pos] in
   order, and stops at the first framing fault with an [Error] (the
   records before it have been passed to [f]). Offsets, not copies of
   the remainder, so the walk is linear in the text. Keys and lengths
   are echoed in errors as bounded excerpts. *)
let fold_records text pos f =
  let excerpt line = Entangle_ir.Sexp.(excerpt (Atom line)) in
  let n = String.length text in
  let line pos =
    match String.index_from_opt text pos '\n' with
    | None -> None
    | Some i -> Some (String.sub text pos (i - pos), i + 1)
  in
  let rec loop pos =
    if pos >= n then Ok ()
    else
      match line pos with
      | None -> Error "truncated archive: dangling key"
      | Some (key, pos) -> (
          match line pos with
          | None -> Error "truncated archive: missing payload length"
          | Some (len_s, pos) -> (
              match int_of_string_opt len_s with
              | None ->
                  Error
                    (Fmt.str "bad payload length %s for %s" (excerpt len_s)
                       (excerpt key))
              | Some len ->
                  if len < 0 || len > n - pos - 1 then
                    Error
                      (Fmt.str "truncated archive: payload of %s" (excerpt key))
                  else if text.[pos + len] <> '\n' then
                    (* An in-range but wrong length would silently shift
                       the framing for every later entry; fail at the
                       faulty one instead. *)
                    Error
                      (Fmt.str "malformed entry terminator for %s"
                         (excerpt key))
                  else begin
                    f key (String.sub text pos len);
                    loop (pos + len + 1)
                  end))
  in
  loop pos

(* --- retention ---------------------------------------------------------- *)

(* One pack as the [objects/] walk sees it: every link to it there, its
   size once, and its mtime, which is the recency of every entry it
   holds. *)
type pack = { links : string list; size : int; mtime : float }

(* The packs under [objects/], grouped by inode — the ground truth the
   sweep and the statistics walk measure, deliberately never the
   in-memory estimate (another process may have written or evicted
   entries since). Quarantined and tmp links are outside [objects/]
   and therefore never counted against the budget. Sorted oldest
   first, ties by first link, so the eviction order is deterministic. *)
let measure t =
  let by_inode = Hashtbl.create 64 in
  iter_entries t (fun ~key:_ ~path ->
      match Unix.stat path with
      | exception Unix.Unix_error _ -> ()
      | st -> (
          let id = (st.Unix.st_dev, st.Unix.st_ino) in
          match Hashtbl.find_opt by_inode id with
          | Some p ->
              Hashtbl.replace by_inode id { p with links = path :: p.links }
          | None ->
              Hashtbl.replace by_inode id
                {
                  links = [ path ];
                  size = st.Unix.st_size;
                  mtime = st.Unix.st_mtime;
                }));
  Hashtbl.fold
    (fun _ p acc -> { p with links = List.rev p.links } :: acc)
    by_inode []
  |> List.sort (fun a b -> compare (a.mtime, a.links) (b.mtime, b.links))

let entries_of packs =
  List.fold_left (fun acc p -> acc + List.length p.links) 0 packs

let bytes_of packs = List.fold_left (fun acc p -> acc + p.size) 0 packs

(* The retention sweep: drop age-expired packs, then evict whole packs
   in least-recently-used order (oldest mtime first; [get] touches a
   pack on every hit of any of its entries) until total bytes fit the
   budget. A pack's bytes are freed with its last link, so a sweep
   removes every link of each pack it drops. The store exactly at the
   budget is kept — the budget is an inclusive ceiling. Returns
   (expired, evicted, evicted_bytes, remaining_entries,
   remaining_bytes), entries counting links. Caller holds the lock. *)
let sweep_locked t ~budget =
  let now = Unix.gettimeofday () in
  let packs = measure t in
  let expired, live =
    match budget.max_age_s with
    | None -> ([], packs)
    | Some age -> List.partition (fun p -> now -. p.mtime > age) packs
  in
  let drop p = List.iter remove_quietly p.links in
  List.iter drop expired;
  let remaining = ref (bytes_of live) and evicted = ref [] and kept = ref [] in
  List.iter
    (fun p ->
      match budget.max_bytes with
      | Some cap when !remaining > cap ->
          drop p;
          remaining := !remaining - p.size;
          evicted := p :: !evicted
      | _ -> kept := p :: !kept)
    live;
  if expired <> [] || !evicted <> [] then t.memo <- None;
  let expired = entries_of expired in
  let evicted_bytes = bytes_of !evicted and evicted = entries_of !evicted in
  t.approx_bytes <- !remaining;
  t.expired_entries <- t.expired_entries + expired;
  t.evicted_entries <- t.evicted_entries + evicted;
  t.evicted_bytes <- t.evicted_bytes + evicted_bytes;
  (expired, evicted, evicted_bytes, entries_of !kept, !remaining)

let open_ ?dir ?budget () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let budget = match budget with Some b -> b | None -> env_budget () in
  let t =
    {
      dir;
      lock = Mutex.create ();
      budget;
      approx_bytes = 0;
      evicted_entries = 0;
      evicted_bytes = 0;
      expired_entries = 0;
      memo = None;
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  mkdir_p (quarantine_dir t);
  if Sys.file_exists (objects_dir t) && Sys.is_directory (objects_dir t) then begin
    if budget.max_bytes <> None then t.approx_bytes <- bytes_of (measure t);
    Ok t
  end
  else Error (Fmt.str "cannot create cache directory %s" dir)

(* --- reads ---------------------------------------------------------------- *)

let touch p = try Unix.utimes p 0. 0. with Unix.Unix_error _ -> ()

(* The records of the pack [p] names, identified by [id]: from the memo
   when it holds that very pack, else read and parsed (and memoized).
   Records before a framing fault stay readable. *)
let records t p id =
  match t.memo with
  | Some (id', records) when id' = id -> `Records records
  | _ -> (
      match read_file p with
      | exception Sys_error _ -> `Unreadable
      | contents -> (
          match String.index_opt contents '\n' with
          | None -> `Damaged
          | Some i ->
              let header = String.sub contents 0 i in
              if String.equal header version then begin
                let records = Hashtbl.create 64 in
                ignore
                  (fold_records contents (i + 1) (Hashtbl.replace records));
                t.memo <- Some (id, records);
                `Records records
              end
              else if starts_with ~prefix:version_prefix header then `Stale
              else `Damaged))

let get t ~key =
  locked t @@ fun () ->
  let p = path t key in
  match Unix.stat p with
  | exception Unix.Unix_error _ -> None
  | st -> (
      let id = pack_id st in
      match t.budget.max_age_s with
      | Some age when Unix.gettimeofday () -. id.mtime > age ->
          (* Age bound beats the hit: an entry past its maximum age is a
             miss even when its bytes are still readable, so a daemon
             and a CLI sharing the directory agree on liveness without
             coordinating sweeps. *)
          remove_quietly p;
          t.expired_entries <- t.expired_entries + 1;
          None
      | _ -> (
          match records t p id with
          | `Unreadable -> None
          | `Stale ->
              (* A well-formed entry of another format version: the
                 schema moved on, so the entry is stale, not corrupt. *)
              remove_quietly p;
              None
          | `Damaged ->
              quarantine t p;
              None
          | `Records records -> (
              match Hashtbl.find_opt records key with
              | None ->
                  (* The link names a pack that does not hold its key. *)
                  quarantine t p;
                  None
              | Some payload ->
                  (* LRU recency: a hit refreshes the pack's mtime, which
                     is the eviction order of the sweep. The memo follows
                     the touch only while the link still names the same
                     inode and size. *)
                  touch p;
                  (match Unix.stat p with
                  | st' ->
                      let id' = pack_id st' in
                      if
                        id'.dev = id.dev && id'.ino = id.ino
                        && id'.size = id.size
                      then t.memo <- Some (id', records)
                  | exception Unix.Unix_error _ -> ());
                  Some payload)))

(* --- writes --------------------------------------------------------------- *)

let fp_link =
  Failpoint.declare "store.link"
    ~doc:"a pack write's hard link fails, forcing one pack per entry"

(* A fresh pack under [tmp/] holding [entries], written straight to
   the file rather than built as one string; its name and size. *)
let write_tmp t entries =
  let tmp = Filename.temp_file ~temp_dir:(tmp_dir t) "pack" ".tmp" in
  let oc = open_out_bin tmp in
  match
    output_string oc version;
    output_char oc '\n';
    List.iter (add_record (output_string oc)) entries;
    let size = pos_out oc in
    close_out oc;
    size
  with
  | size -> (tmp, size)
  | exception e ->
      close_out_noerr oc;
      remove_quietly tmp;
      raise e

(* Move [src] over [key]'s path, creating the shard directory when the
   first attempt finds it missing; [src] is gone either way. *)
let install t src key =
  let target = path t key in
  try
    try Unix.rename src target
    with Unix.Unix_error (Unix.ENOENT, _, _) ->
      mkdir_p (Filename.dirname target);
      Unix.rename src target
  with e ->
    remove_quietly src;
    raise e

(* One pack for every entry, hard-linked under each key: per entry a
   [link] to a fresh name and a [rename] over the key, so a reader
   never sees a torn entry and the last writer of a key wins. Where
   [link] is refused, each remaining entry gets a one-record pack of
   its own. Returns the bytes written. Caller holds the lock. *)
let write_pack t entries =
  mkdir_p (tmp_dir t);
  let tmp, size = write_tmp t entries in
  Fun.protect
    ~finally:(fun () -> remove_quietly tmp)
    (fun () ->
      let rec link_each i = function
        | [] -> size
        | ((key, _) :: rest) as remaining -> (
            let name = tmp ^ "." ^ string_of_int i in
            match
              Failpoint.hit fp_link;
              Unix.link tmp name
            with
            | () ->
                install t name key;
                link_each (i + 1) rest
            | exception
                ( Failpoint.Injected _
                | Unix.Unix_error
                    ( ( Unix.EPERM | Unix.EXDEV | Unix.EMLINK
                      | Unix.EOPNOTSUPP ),
                      _,
                      _ ) ) ->
                List.fold_left
                  (fun acc entry ->
                    let one, one_size = write_tmp t [ entry ] in
                    install t one (fst entry);
                    acc + one_size)
                  (if i = 0 then 0 else size)
                  remaining)
      in
      link_each 0 entries)

let put_all t entries =
  if entries = [] then Ok 0
  else
    locked t @@ fun () ->
    try
      let bytes = write_pack t entries in
      (match t.budget.max_bytes with
      | None -> ()
      | Some cap ->
          t.approx_bytes <- t.approx_bytes + bytes;
          (* The estimate only triggers the sweep; the sweep re-measures
             the directory, so drift against other writers is harmless. *)
          if t.approx_bytes > cap then
            ignore (sweep_locked t ~budget:t.budget));
      Ok bytes
    with
    | Sys_error e -> Error e
    | Unix.Unix_error (e, fn, arg) ->
        Error (Fmt.str "%s %s: %s" fn arg (Unix.error_message e))

let put t ~key payload = Result.map ignore (put_all t [ (key, payload) ])

(* --- maintenance ---------------------------------------------------------- *)

type stats = {
  entries : int;
  bytes : int;
  shards : int;
  quarantined : int;
  max_bytes : int option;
  max_age_s : float option;
  evicted_entries : int;
  evicted_bytes : int;
  expired_entries : int;
}

let stats t =
  locked t @@ fun () ->
  let packs = measure t in
  let shards =
    List.length
      (List.filter
         (fun sh ->
           try Sys.is_directory (Filename.concat (objects_dir t) sh)
           with Sys_error _ -> false)
         (list_dir (objects_dir t)))
  in
  {
    entries = entries_of packs;
    bytes = bytes_of packs;
    shards;
    quarantined = List.length (list_dir (quarantine_dir t));
    max_bytes = t.budget.max_bytes;
    max_age_s = t.budget.max_age_s;
    evicted_entries = t.evicted_entries;
    evicted_bytes = t.evicted_bytes;
    expired_entries = t.expired_entries;
  }

let clear t =
  locked t @@ fun () ->
  let removed = ref 0 in
  iter_entries t (fun ~key:_ ~path ->
      remove_quietly path;
      incr removed);
  List.iter
    (fun name -> remove_quietly (Filename.concat (tmp_dir t) name))
    (list_dir (tmp_dir t));
  t.approx_bytes <- 0;
  t.memo <- None;
  !removed

type gc_result = {
  expired : int;
  evicted : int;
  freed_bytes : int;
  remaining_entries : int;
  remaining_bytes : int;
}

let gc ?budget:b t =
  locked t @@ fun () ->
  let budget = match b with Some b -> b | None -> t.budget in
  let expired, evicted, evicted_bytes, remaining_entries, remaining_bytes =
    sweep_locked t ~budget
  in
  List.iter
    (fun name -> remove_quietly (Filename.concat (tmp_dir t) name))
    (list_dir (tmp_dir t));
  {
    expired;
    evicted;
    freed_bytes = evicted_bytes;
    remaining_entries;
    remaining_bytes;
  }

(* --- portable archives --------------------------------------------- *)

let archive_header = "entangle-cache-archive/1"

let export_all t =
  let keys = ref [] in
  locked t (fun () ->
      iter_entries t (fun ~key ~path:_ -> keys := key :: !keys));
  let b = Buffer.create 4096 in
  Buffer.add_string b archive_header;
  Buffer.add_char b '\n';
  let n = ref 0 in
  List.iter
    (fun key ->
      (* Reading through [get] applies the full validation path:
         version-skewed entries self-invalidate, damaged entries are
         quarantined, expired entries miss — none of them can reach an
         archive. *)
      match get t ~key with
      | None -> ()
      | Some payload ->
          incr n;
          add_record (Buffer.add_string b) (key, payload))
    (List.sort String.compare !keys);
  (Buffer.contents b, !n)

(* Archive keys become file names under objects/<shard>/, and archives
   are exchanged between machines — untrusted input. A hostile key
   containing '/' or '..' would make [put] write outside the store
   directory, so only fingerprint-shaped keys (lowercase hex) may
   import; anything else counts as a rejected entry. *)
let importable_key key =
  let n = String.length key in
  n >= 2 && n <= 128
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) key

let import_all ?(check = fun ~key:_ _ -> true) t text =
  (* Archive lines are echoed in errors as bounded excerpts. *)
  let excerpt line = Entangle_ir.Sexp.(excerpt (Atom line)) in
  match String.index_opt text '\n' with
  | None -> Error "empty archive"
  | Some i when not (String.equal (String.sub text 0 i) archive_header) ->
      Error
        (Fmt.str "unrecognized archive header %s"
           (excerpt (String.sub text 0 i)))
  | Some i -> (
      let accepted = ref [] and rejected = ref 0 in
      let framing =
        fold_records text (i + 1) (fun key payload ->
            if importable_key key && check ~key payload then
              accepted := (key, payload) :: !accepted
            else incr rejected)
      in
      (* One pack for the archive, holding every entry read before a
         framing fault. *)
      let entries = List.rev !accepted in
      match (put_all t entries, framing) with
      | Error e, _ | _, Error e -> Error e
      | Ok _, Ok () -> Ok (List.length entries, !rejected))

type verify_result = { checked : int; ok : int; invalid : int }

let verify t ~check =
  let keys = ref [] in
  locked t (fun () -> iter_entries t (fun ~key ~path -> keys := (key, path) :: !keys));
  let checked = ref 0 and ok = ref 0 and invalid = ref 0 in
  List.iter
    (fun (key, path) ->
      incr checked;
      match get t ~key with
      | None ->
          (* [get] already removed or quarantined the damaged file. *)
          incr invalid
      | Some payload ->
          if check ~key payload then incr ok
          else begin
            incr invalid;
            locked t (fun () -> quarantine t path)
          end)
    (List.rev !keys)
  ;
  { checked = !checked; ok = !ok; invalid = !invalid }
