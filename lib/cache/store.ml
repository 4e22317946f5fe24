let version = "entangle-cache/1"
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

(* [lock] serializes get/put and the eviction sweeps: entries are one
   file each and writes are atomic renames, so concurrent access would
   not corrupt the store, but the daemon's handler threads share one
   handle and the lock keeps the read-then-quarantine/stale-removal
   and accounting paths free of same-file races. A {e second process}
   (a resident daemon and a CLI run sharing one directory) is safe by
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

let quarantine t p =
  let dest = Filename.concat (quarantine_dir t) (Filename.basename p) in
  mkdir_p (quarantine_dir t);
  try Sys.rename p dest with Sys_error _ -> remove_quietly p

(* Split [contents] at the first newline. *)
let split_line contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some i ->
      Some
        ( String.sub contents 0 i,
          String.sub contents (i + 1) (String.length contents - i - 1) )

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

(* One (path, bytes, mtime) row per object file — the ground truth the
   sweep and the statistics walk measure, deliberately never the
   in-memory estimate (another process may have written or evicted
   entries since). Quarantined and tmp files are outside [objects/]
   and therefore never counted against the budget. *)
let measure t =
  let rows = ref [] in
  iter_entries t (fun ~key:_ ~path ->
      match Unix.stat path with
      | exception Unix.Unix_error _ -> ()
      | st ->
          rows := (path, st.Unix.st_size, st.Unix.st_mtime) :: !rows);
  !rows

(* The retention sweep: drop age-expired entries, then evict in
   least-recently-used order (oldest mtime first; [get] touches
   entries on every hit) until total bytes fit the budget. An entry
   exactly at the budget boundary is kept — the budget is an
   inclusive ceiling. Returns (expired, evicted, evicted_bytes,
   remaining_entries, remaining_bytes). Caller holds the lock. *)
let sweep_locked t ~budget =
  let now = Unix.gettimeofday () in
  let rows = measure t in
  let expired, live =
    match budget.max_age_s with
    | None -> ([], rows)
    | Some age ->
        List.partition (fun (_, _, mtime) -> now -. mtime > age) rows
  in
  List.iter (fun (p, _, _) -> remove_quietly p) expired;
  let live = List.sort (fun (_, _, a) (_, _, b) -> compare a b) live in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 live in
  let evicted = ref 0 and evicted_bytes = ref 0 in
  let remaining = ref total and kept = ref (List.length live) in
  (match budget.max_bytes with
  | None -> ()
  | Some cap ->
      List.iter
        (fun (p, sz, _) ->
          if !remaining > cap then begin
            remove_quietly p;
            incr evicted;
            evicted_bytes := !evicted_bytes + sz;
            remaining := !remaining - sz;
            decr kept
          end)
        live);
  t.approx_bytes <- !remaining;
  t.expired_entries <- t.expired_entries + List.length expired;
  t.evicted_entries <- t.evicted_entries + !evicted;
  t.evicted_bytes <- t.evicted_bytes + !evicted_bytes;
  (List.length expired, !evicted, !evicted_bytes, !kept, !remaining)

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
    }
  in
  mkdir_p (objects_dir t);
  mkdir_p (tmp_dir t);
  mkdir_p (quarantine_dir t);
  if Sys.file_exists (objects_dir t) && Sys.is_directory (objects_dir t) then begin
    if budget.max_bytes <> None then
      t.approx_bytes <-
        List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 (measure t);
    Ok t
  end
  else Error (Fmt.str "cannot create cache directory %s" dir)

let touch p = try Unix.utimes p 0. 0. with Unix.Unix_error _ -> ()

let expired t p =
  match t.budget.max_age_s with
  | None -> false
  | Some age -> (
      match Unix.stat p with
      | exception Unix.Unix_error _ -> false
      | st -> Unix.gettimeofday () -. st.Unix.st_mtime > age)

let get t ~key =
  locked t @@ fun () ->
  let p = path t key in
  if not (Sys.file_exists p) then None
  else if expired t p then begin
    (* Age bound beats the hit: an entry past its maximum age is a
       miss even when its bytes are still readable, so a daemon and a
       CLI sharing the directory agree on liveness without
       coordinating sweeps. *)
    remove_quietly p;
    t.expired_entries <- t.expired_entries + 1;
    None
  end
  else
    match read_file p with
    | exception Sys_error _ -> None
    | contents -> (
        match split_line contents with
        | None ->
            quarantine t p;
            None
        | Some (header, rest) ->
            if String.equal header version then
              match split_line rest with
              | Some (k, payload) when String.equal k key ->
                  (* LRU recency: a hit refreshes the entry's mtime,
                     which is the eviction order of the sweep. *)
                  touch p;
                  Some payload
              | _ ->
                  quarantine t p;
                  None
            else if starts_with ~prefix:version_prefix header then begin
              (* A well-formed entry of another format version: the
                 schema moved on, so the entry is stale, not corrupt. *)
              remove_quietly p;
              None
            end
            else begin
              quarantine t p;
              None
            end)

let put t ~key payload =
  locked t @@ fun () ->
  try
    let target = path t key in
    mkdir_p (Filename.dirname target);
    mkdir_p (tmp_dir t);
    let tmp = Filename.temp_file ~temp_dir:(tmp_dir t) "entry" ".tmp" in
    let oc = open_out_bin tmp in
    (try
       output_string oc version;
       output_char oc '\n';
       output_string oc key;
       output_char oc '\n';
       output_string oc payload
     with e ->
       close_out_noerr oc;
       remove_quietly tmp;
       raise e);
    close_out oc;
    Sys.rename tmp target;
    (match t.budget.max_bytes with
    | None -> ()
    | Some cap ->
        t.approx_bytes <-
          t.approx_bytes + String.length version + String.length key
          + String.length payload + 2;
        (* The estimate only triggers the sweep; the sweep re-measures
           the directory, so drift against other writers is harmless. *)
        if t.approx_bytes > cap then ignore (sweep_locked t ~budget:t.budget));
    Ok ()
  with Sys_error e -> Error e

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
  let rows = measure t in
  let shards =
    List.length
      (List.filter
         (fun sh ->
           try Sys.is_directory (Filename.concat (objects_dir t) sh)
           with Sys_error _ -> false)
         (list_dir (objects_dir t)))
  in
  {
    entries = List.length rows;
    bytes = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 rows;
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
          Buffer.add_string b key;
          Buffer.add_char b '\n';
          Buffer.add_string b (string_of_int (String.length payload));
          Buffer.add_char b '\n';
          Buffer.add_string b payload;
          Buffer.add_char b '\n')
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
  match split_line text with
  | None -> Error "empty archive"
  | Some (header, _) when not (String.equal header archive_header) ->
      Error (Fmt.str "unrecognized archive header %s" (excerpt header))
  | Some (_, rest) ->
      let rec loop rest imported rejected =
        if String.equal rest "" then Ok (imported, rejected)
        else
          match split_line rest with
          | None -> Error "truncated archive: dangling key"
          | Some (key, rest) -> (
              match split_line rest with
              | None -> Error "truncated archive: missing payload length"
              | Some (len_s, rest) -> (
                  match int_of_string_opt len_s with
                  | None ->
                      Error
                        (Fmt.str "bad payload length %s for %s" (excerpt len_s)
                           (excerpt key))
                  | Some len ->
                      if len < 0 || String.length rest < len + 1 then
                        Error
                          (Fmt.str "truncated archive: payload of %s"
                             (excerpt key))
                      else if rest.[len] <> '\n' then
                        (* An in-range but wrong length would silently
                           shift the framing for every later entry;
                           fail at the faulty one instead. *)
                        Error
                          (Fmt.str "malformed entry terminator for %s"
                             (excerpt key))
                      else
                        let payload = String.sub rest 0 len in
                        let rest =
                          String.sub rest (len + 1)
                            (String.length rest - len - 1)
                        in
                        if not (importable_key key && check ~key payload) then
                          loop rest imported (rejected + 1)
                        else
                          (match put t ~key payload with
                          | Ok () -> loop rest (imported + 1) rejected
                          | Error e -> Error e)))
      in
      loop rest 0 0

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
