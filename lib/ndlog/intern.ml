(* Hash-consed interning of runtime values.

   Every distinct {!Value.t} that passes through the interner is mapped
   to a single canonical representative and a dense integer id.  Two
   things fall out:

   - *Sharing*: stores hold one physical copy of each address string /
     path list, so equality checks between resident values hit the
     physical-equality fast path in {!Value.compare} and the live heap
     shrinks under churn (duplicate strings collapse).
   - *Flat tuples*: the id-native evaluator ({!Ideval}, {!Flat}) stores
     tuples as int arrays, turning string comparisons on its joins into
     machine-int comparisons.

   The tables here are process-global caches, exactly like the
   secondary-index caches in {!Store}: they never participate in store
   equality, comparison, or hashing, so model-checker state identity is
   untouched.  Ids are *not* ordered consistently with
   {!Value.compare} — they are allocation-ordered — so they are only
   ever used where equality is the question (hash-cons hits, id-keyed
   joins); anything that needs the canonical order converts back to
   boxed values first.

   [id] and [canon] always intern, regardless of {!enabled}: the flag
   only tells {!Store} whether to canonicalize incoming tuples.  That
   way flipping the flag mid-run (as the benchmarks do) can never make
   an id lookup miss a value interned under the other setting.

   Thread safety: a single mutex guards the tables, making interning
   safe for a library client that calls it from several domains or
   threads.  The critical sections are a hash-table probe or insert —
   uncontended locking is cheap next to the work saved. *)

(* Interning defaults on; FVN_INTERNING=0 (or false/no/off) restores
   the boxed-value oracle path. *)
let enabled =
  ref
    (match Sys.getenv_opt "FVN_INTERNING" with
    | Some ("0" | "false" | "no" | "off") -> false
    | _ -> true)

(* The hash-cons table must use Value's own equality and hash —
   Value.hash is structural over the List constructor, and a generic
   Hashtbl.hash would be a second, divergent notion of value identity. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let lock = Mutex.create ()
let table : (int * Value.t) Vtbl.t = Vtbl.create 4096

(* id -> canonical representative, grown geometrically. *)
let reverse : Value.t array ref = ref (Array.make 4096 (Value.Int 0))
let count = ref 0

let register rep =
  let id = !count in
  let cap = Array.length !reverse in
  if id >= cap then begin
    let bigger = Array.make (2 * cap) (Value.Int 0) in
    Array.blit !reverse 0 bigger 0 cap;
    reverse := bigger
  end;
  !reverse.(id) <- rep;
  incr count;
  id

(* Canonicalize [v], interning it (and, for lists, every suffix of its
   spine via the recursive rebuild) on first sight.  Runs under [lock];
   does not recurse through the lock. *)
let rec canon_locked (v : Value.t) : Value.t =
  match Vtbl.find_opt table v with
  | Some (_, rep) -> rep
  | None ->
    let rep =
      match v with
      | Value.List vs -> Value.List (List.map canon_locked vs)
      | _ -> v
    in
    let id = register rep in
    Vtbl.add table v (id, rep);
    rep

let id_locked (v : Value.t) : int =
  match Vtbl.find_opt table v with
  | Some (id, _) -> id
  | None ->
    let rep =
      match v with
      | Value.List vs -> Value.List (List.map canon_locked vs)
      | _ -> v
    in
    let id = register rep in
    Vtbl.add table v (id, rep);
    id

let canon v =
  Mutex.lock lock;
  let rep = canon_locked v in
  Mutex.unlock lock;
  rep

let id v =
  Mutex.lock lock;
  let i = id_locked v in
  Mutex.unlock lock;
  i

let of_id i =
  Mutex.lock lock;
  let n = !count in
  let v = if i >= 0 && i < n then Some !reverse.(i) else None in
  Mutex.unlock lock;
  match v with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Intern.of_id: unknown id %d" i)

(* Canonicalize a tuple in place of a fresh copy when every element is
   already canonical — re-adding a resident tuple then allocates
   nothing. *)
let tuple (t : Value.t array) : Value.t array =
  Mutex.lock lock;
  let n = Array.length t in
  let fresh = ref None in
  for i = 0 to n - 1 do
    let c = canon_locked t.(i) in
    if c != t.(i) then begin
      let out =
        match !fresh with
        | Some out -> out
        | None ->
          let out = Array.copy t in
          fresh := Some out;
          out
      in
      out.(i) <- c
    end
  done;
  Mutex.unlock lock;
  match !fresh with Some out -> out | None -> t

(* ------------------------------------------------------------------ *)
(* Whole-tuple translation: the id-native evaluator's system-boundary
   conversions.  boxed -> id pays one hash-cons probe per element (the
   expensive direction: hashing walks the value's structure); id ->
   boxed is an array read per element (the cheap direction).  The E15
   microbenchmark in bench/ keeps both costs measured. *)

let tuple_ids (t : Value.t array) : int array =
  Mutex.lock lock;
  let out = Array.map id_locked t in
  Mutex.unlock lock;
  out

let tuple_of_ids (ids : int array) : Value.t array =
  Mutex.lock lock;
  let n = !count in
  let rev = !reverse in
  Mutex.unlock lock;
  Array.map
    (fun i ->
      if i >= 0 && i < n then rev.(i)
      else invalid_arg (Printf.sprintf "Intern.tuple_of_ids: unknown id %d" i))
    ids

(* Unsynchronized id -> value read for the id-native evaluator's inner
   loops.  Safe because [reverse] slots are written exactly once, before
   their id is ever published (the registering thread holds the lock,
   and the id reaches a reader only through a later synchronized
   operation), and a stale [reverse] array read during a concurrent grow
   still holds every already-published entry.  The bounds check against
   an unsynchronized [count] is exact in the single-domain runtimes that
   use this path. *)
let get (i : int) : Value.t =
  if i >= 0 && i < !count then !reverse.(i)
  else invalid_arg (Printf.sprintf "Intern.get: unknown id %d" i)

(* Small non-negative integers are the bulk of freshly computed values
   (hop counts, path costs): memoize their ids in a direct-indexed
   table so arithmetic on the id-native path skips the hash-cons probe.
   -1 marks an unfilled slot (real ids are >= 0). *)
let small_int_ids = Array.make 4096 (-1)

let int_id (n : int) : int =
  if n >= 0 && n < Array.length small_int_ids then begin
    let cached = Array.unsafe_get small_int_ids n in
    if cached >= 0 then cached
    else begin
      let i = id (Value.Int n) in
      small_int_ids.(n) <- i;
      i
    end
  end
  else id (Value.Int n)

let size () =
  Mutex.lock lock;
  let n = !count in
  Mutex.unlock lock;
  n
