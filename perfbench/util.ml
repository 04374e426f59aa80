(* Clock, latency summaries, GC windows and the result record every
   workload fills in. *)

(* Monotonic nanoseconds: wall-clock steps must not land in a sample. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9

(* Host speed.  On a shared host the CPU speed drifts by 10-25 % over
   minutes, which swamps code-level differences between runs.  A fixed
   reference kernel that uses no FVN code is therefore timed inside every
   timed window and around every set-up, and each reported time is scaled
   by [speed = nominal / kernel time]: a time reads as it would on the
   host at the speed where the kernel takes [kernel_nominal_ns].  Raw
   readings stay in the per-layer output (host.kernel_ms) and in
   run.py's printout. *)
let kernel_nominal_ns = 5_500_000

(* Short-lived allocation and pointer chasing, like the workloads, but
   small enough to die in the minor heap: the kernel must not move the
   major-heap figures it runs beside. *)
let kernel_ns () =
  let t0 = now_ns () in
  let module M = Map.Make (Int) in
  for r = 1 to 10 do
    let m = ref M.empty in
    for i = 0 to 1_999 do
      m := M.add (i * 7919 land 65535) [ i; r ] !m
    done;
    ignore (Sys.opaque_identity (M.fold (fun k v acc -> acc + k + List.length v) !m 0))
  done;
  now_ns () - t0

(* Per-op seconds live off the OCaml heap, so the live-heap figure of a
   window counts the workload, not its growing sample buffer. *)
type samples = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let median (xs : float list) =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "median: no values"
  | sorted -> List.nth sorted (List.length sorted / 2)

exception Bad_sample of string

(* Nearest-rank percentile index into a sorted array of [n] samples. *)
let rank n q = max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)

(* The fewest ops that leave eleven samples beyond the [tail]
   percentile: every run measures at least this many, whatever its time
   budget. *)
let min_ops ~tail = int_of_float (Float.ceil (11. /. (1. -. tail)))

(* The median and the [tail] percentile, both read from one sorted array
   of the run's samples.  The tail must have at least ten samples beyond
   it and must not read below the median, or the run has too few samples
   to report it. *)
let latency_metrics ~tail (samples : samples) =
  let a = Array.init (Bigarray.Array1.dim samples) (Bigarray.Array1.get samples) in
  Array.sort Float.compare a;
  let n = Array.length a in
  let p50 = a.(rank n 0.50) and pt = a.(rank n tail) in
  let beyond = n - 1 - rank n tail in
  if beyond < 10 then
    raise
      (Bad_sample
         (Printf.sprintf "p%g has %d samples beyond it (n=%d), need 10"
            (tail *. 100.) beyond n));
  if pt < p50 then
    raise (Bad_sample (Printf.sprintf "p%g < p50 (n=%d)" (tail *. 100.) n));
  [ ("op_p50_ms", p50 *. 1e3, "ms"); ("op_tail_ms", pt *. 1e3, "ms") ]

(* Allocation and collection counters over a window. *)
type gc_mark = { minor : float; promoted : float; majors : int }

let gc_mark () =
  let minor, promoted, _ = Gc.counters () in
  { minor; promoted; majors = (Gc.quick_stat ()).Gc.major_collections }

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* GC metrics of a timed window of [ops] ops that started at [m0], and
   the live heap after a full major collection at its end. *)
let gc_metrics ~ops m0 =
  let m1 = gc_mark () in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  let per_op x = x /. float_of_int ops in
  ( live,
    [
      ("gc.minor_words_per_op", per_op (m1.minor -. m0.minor), "words");
      ("gc.promoted_words_per_op", per_op (m1.promoted -. m0.promoted), "words");
      ( "gc.major_per_kop",
        1e3 *. per_op (float_of_int (m1.majors - m0.majors)),
        "count" );
    ] )

let intern_growth ~ops interned0 =
  ( "intern.growth_per_kop",
    1e3 *. float_of_int (Ndlog.Intern.size () - interned0) /. float_of_int ops,
    "count" )

type metric = string * float * string

(* What one workload process reports.  [layers] holds per-layer metrics:
   from a traced process the span-derived ones, from an untraced one the
   few that must be read with tracing off (GC, throughput per mode). *)
type result = {
  ops : int;
  failed : int;
  checks : int;  (** output checks run, outside the timed ops *)
  check_failures : string list;
  digest : string;
  window_s : float;
  tail : float;  (** the percentile reported as op_tail_ms *)
  end_to_end : metric list;
  measured : metric list;  (** the timed end-to-end metrics, unscaled *)
  layers : metric list;
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
             (json_float v) (json_string u))
         ms)
  ^ "}"

let print_result ~workload ~seed ~traced r =
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"traced\": %b, \"ops\": %d, \
     \"failed\": %d, \"checks\": %d, \"check_failures\": [%s], \"digest\": \
     %s, \"window_s\": %s, \"tail\": %g, \"end_to_end\": \
     %s, \"measured\": %s, \"layers\": %s}\n"
    (json_string workload) seed traced r.ops r.failed r.checks
    (String.concat ", " (List.map json_string r.check_failures))
    (json_string r.digest) (json_float r.window_s) r.tail
    (json_metrics r.end_to_end) (json_metrics r.measured)
    (json_metrics r.layers)

type window = {
  lat : samples;  (* per-op seconds, in op order *)
  n_ops : int;
  raised : int;  (* ops that raised *)
  window_s : float;
  peak_heap_words : int;  (* the major heap's largest size after an op *)
  kernel_ms : float;  (* mean reference-kernel time over the window *)
}

(* The timed window: [op k] for k = 0, 1, ..., each timed on its own.
   It ends at a multiple of [round] ops once [seconds] of window time
   have passed and at least [min_ops ~tail] ran, or after exactly [ops]
   ops when given (a traced rerun of an untraced window).  [between k]
   runs after op [k] outside the timing — output checks — and its time
   leaves the window too, as do reading the heap size and timing the
   reference kernel (at the start, every second, and at the end). *)
let measure ?ops ~seconds ~round ~tail ~op ~between () =
  let open Bigarray in
  let lat = ref (Array1.create float64 c_layout (1 lsl 16)) in
  let n = ref 0 and raised = ref 0 and excluded = ref 0 and peak = ref 0 in
  let kernels = ref [ kernel_ns () ] and next_kernel = ref 1.0 in
  let min_ops = min_ops ~tail in
  let t_start = now_ns () in
  let window () = secs_of_ns (now_ns () - t_start - !excluded) in
  let continue () =
    match ops with
    | Some m -> !n < m
    | None -> !n mod round <> 0 || !n < min_ops || window () < seconds
  in
  while continue () do
    let k = !n in
    let t0 = now_ns () in
    (try op k
     with e ->
       incr raised;
       if !raised <= 3 then
         Printf.eprintf "op %d raised: %s\n%!" k (Printexc.to_string e));
    let t1 = now_ns () in
    if k = Array1.dim !lat then begin
      let bigger = Array1.create float64 c_layout (2 * k) in
      Array1.blit !lat (Array1.sub bigger 0 k);
      lat := bigger
    end;
    !lat.{k} <- secs_of_ns (t1 - t0);
    between k;
    peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
    excluded := !excluded + (now_ns () - t1);
    if window () >= !next_kernel then begin
      let t = now_ns () in
      kernels := kernel_ns () :: !kernels;
      next_kernel := !next_kernel +. 1.0;
      excluded := !excluded + (now_ns () - t)
    end;
    incr n
  done;
  let window_s = window () in
  kernels := kernel_ns () :: !kernels;
  let mean xs = float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs) in
  {
    lat = Array1.sub !lat 0 !n;
    n_ops = !n;
    raised = !raised;
    window_s;
    peak_heap_words = !peak;
    kernel_ms = mean !kernels *. 1e-6;
  }

(* Run [setup] [reps] times and keep the last result.  Each repetition
   is scaled by the host speed read just before and after it; the
   reported set-up time is the median, so one slow repetition cannot
   move it.  Returns the last result and the scaled and raw medians. *)
let repeated_setup ~reps setup =
  let rec go i scaled raw last =
    if i = reps then (Option.get last, (median scaled, median raw))
    else begin
      let k0 = kernel_ns () in
      let t0 = now_ns () in
      let v = setup () in
      let dt = secs_of_ns (now_ns () - t0) in
      let k = float_of_int (k0 + kernel_ns ()) /. 2. in
      let speed = float_of_int kernel_nominal_ns /. k in
      go (i + 1) ((dt *. speed) :: scaled) (dt :: raw) (Some v)
    end
  in
  go 0 [] [] None

(* The result of a window, once its outputs are checked.  [live_words]
   is the live heap after the window (see [gc_metrics]); [setup] is
   [repeated_setup]'s scaled and raw median.  Times are scaled by the
   window's host speed; [measured] keeps them as read. *)
let result ~tail ~setup ~live_words ~checks ~failures
    ~digest ~layers w =
  let setup_s, setup_raw = setup in
  let speed = float_of_int kernel_nominal_ns *. 1e-6 /. w.kernel_ms in
  let ops_per_s = float_of_int w.n_ops /. w.window_s in
  let lat = latency_metrics ~tail w.lat in
  {
    ops = w.n_ops;
    failed = w.raised + List.length failures;
    checks;
    check_failures = failures;
    digest;
    window_s = w.window_s;
    tail;
    end_to_end =
      [ ("setup_s", setup_s, "s"); ("ops_per_s", ops_per_s /. speed, "1/s") ]
      @ List.map (fun (n, v, u) -> (n, v *. speed, u)) lat
      @ [
          ("live_heap_mb", mb_of_words live_words, "MB");
          ("peak_heap_mb", mb_of_words w.peak_heap_words, "MB");
        ];
    measured =
      [ ("setup_s", setup_raw, "s"); ("ops_per_s", ops_per_s, "1/s") ] @ lat;
    layers = ("host.kernel_ms", w.kernel_ms, "ms") :: layers;
  }
