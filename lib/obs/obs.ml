(* Observability: spans, counters, histograms.

   Design constraints (see doc/OBSERVABILITY.md):

   - The disabled hot path must be as close to free as OCaml allows: one
     load of [on] and a conditional branch, no allocation, no clock read.
     Every mutating entry point starts with [if !on then ...].
   - The registry is process-global so that instrumented libraries
     ([jqi.core], [jqi.relational]) and consumers (CLI, bench, tests)
     agree on counters without threading handles through APIs.
   - Counters are plain mutable ints shared across domains; racing
     increments are memory-safe in OCaml 5 and may at worst lose updates,
     which metrics tolerate.  The span stack is main-domain only. *)

module Json = Jqi_util.Json
module Table = Jqi_util.Ascii_table

let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* Monotonic-ized wall clock: gettimeofday clamped to never step back, so
   span durations and trace timestamps are always non-negative. *)
let last_now = ref 0.

let now () =
  let t = Unix.gettimeofday () in
  if t > !last_now then last_now := t;
  !last_now

let epoch = now ()

(* ----------------------------- counters --------------------------- *)

module Counter = struct
  type t = { name : string; mutable n : int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { name; n = 0 } in
        Hashtbl.add registry name c;
        c

  let incr c = if !on then c.n <- c.n + 1
  let add c k = if !on then c.n <- c.n + k
  let name c = c.name
  let value c = c.n

  let find name =
    match Hashtbl.find_opt registry name with Some c -> c.n | None -> 0

  let reset_all () = Hashtbl.iter (fun _ c -> c.n <- 0) registry
end

(* ---------------------------- histograms -------------------------- *)

module Histogram = struct
  (* Constant-time observations: running count/sum/min/max plus 64
     power-of-two buckets (bucket i covers (2^(i-33), 2^(i-32)]), enough
     resolution to separate µs from ms from s without storing samples. *)
  type t = {
    name : string;
    mutable count : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
    buckets : int array;
  }

  let n_buckets = 64
  let bucket_offset = 32

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h =
          { name; count = 0; sum = 0.; minv = nan; maxv = nan;
            buckets = Array.make n_buckets 0 }
        in
        Hashtbl.add registry name h;
        h

  let bucket_of v =
    if v <= 0. || Float.is_nan v then 0
    else
      let i = int_of_float (Float.ceil (Float.log2 v)) + bucket_offset in
      if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

  let observe h v =
    if !on then begin
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if h.count = 1 || v < h.minv then h.minv <- v;
      if h.count = 1 || v > h.maxv then h.maxv <- v;
      let b = h.buckets.(bucket_of v) in
      h.buckets.(bucket_of v) <- b + 1
    end

  let count h = h.count
  let sum h = h.sum
  let mean h = if h.count = 0 then nan else h.sum /. float_of_int h.count

  let quantile h q =
    if h.count = 0 then nan
    else begin
      let target =
        int_of_float (Float.ceil (q *. float_of_int h.count)) |> max 1
      in
      let rec go i seen =
        if i >= n_buckets then h.maxv
        else
          let seen = seen + h.buckets.(i) in
          if seen >= target then Float.pow 2. (float_of_int (i - bucket_offset))
          else go (i + 1) seen
      in
      go 0 0
    end

  let reset_all () =
    Hashtbl.iter
      (fun _ h ->
        h.count <- 0;
        h.sum <- 0.;
        h.minv <- nan;
        h.maxv <- nan;
        Array.fill h.buckets 0 n_buckets 0)
      registry
end

(* ------------------------------ spans ----------------------------- *)

type handle = {
  sp_name : string;
  sp_path : string;
  sp_depth : int;
  sp_start : float;
  sp_attrs : (string * string) list;
  sp_live : bool;
}

type finished = {
  f_name : string;
  f_path : string;
  f_depth : int;
  f_start : float;
  f_dur : float;
  f_attrs : (string * string) list;
}

let null_handle =
  { sp_name = ""; sp_path = ""; sp_depth = 0; sp_start = 0.; sp_attrs = [];
    sp_live = false }

let stack : handle list ref = ref []
let finished : finished list ref = ref [] (* newest first *)

let enter ?(attrs = []) name =
  if not !on then null_handle
  else begin
    let path, depth =
      match !stack with
      | [] -> (name, 0)
      | parent :: _ -> (parent.sp_path ^ "/" ^ name, parent.sp_depth + 1)
    in
    let sp =
      { sp_name = name; sp_path = path; sp_depth = depth; sp_start = now ();
        sp_attrs = attrs; sp_live = true }
    in
    stack := sp :: !stack;
    sp
  end

let record sp =
  finished :=
    { f_name = sp.sp_name; f_path = sp.sp_path; f_depth = sp.sp_depth;
      f_start = sp.sp_start; f_dur = now () -. sp.sp_start;
      f_attrs = sp.sp_attrs }
    :: !finished

let exit sp =
  if sp.sp_live && List.memq sp !stack then begin
    (* Pop to the matching frame: inner spans missing their [exit] are
       closed here with the same end time. *)
    let rec pop = function
      | [] -> []
      | f :: rest ->
          record f;
          if f == sp then rest else pop rest
    in
    stack := pop !stack
  end

let span ?attrs name f =
  if not !on then f ()
  else begin
    let sp = enter ?attrs name in
    Fun.protect ~finally:(fun () -> exit sp) f
  end

let reset () =
  Counter.reset_all ();
  Histogram.reset_all ();
  stack := [];
  finished := []

(* ------------------------- trace export --------------------------- *)

(* Chrome trace format ("X" complete events), loadable in chrome://tracing
   and Perfetto.  Timestamps are microseconds from the process epoch. *)
let trace_json () =
  let event f =
    let base =
      [
        ("name", Json.Str f.f_name);
        ("cat", Json.Str "jqi");
        ("ph", Json.Str "X");
        ("ts", Json.Num ((f.f_start -. epoch) *. 1e6));
        ("dur", Json.Num (f.f_dur *. 1e6));
        ("pid", Json.int 1);
        ("tid", Json.int 1);
      ]
    in
    let args =
      match f.f_attrs with
      | [] -> []
      | attrs ->
          [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)) ]
    in
    Json.Obj (base @ args)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev_map event !finished));
      ("displayTimeUnit", Json.Str "ms");
    ]

let save_trace path = Json.save_file path (trace_json ())

(* ---------------------------- snapshot ---------------------------- *)

module Report = struct
  type histogram_summary = {
    h_count : int;
    h_sum : float;
    h_mean : float;
    h_min : float;
    h_max : float;
  }

  type span_summary = {
    s_path : string;
    s_name : string;
    s_depth : int;
    s_calls : int;
    s_total : float;
  }

  type t = {
    counters : (string * int) list;
    histograms : (string * histogram_summary) list;
    spans : span_summary list;
  }

  let by_name (a, _) (b, _) = String.compare a b

  let snapshot () =
    let counters =
      Hashtbl.fold (fun name c acc -> (name, c.Counter.n) :: acc)
        Counter.registry []
      |> List.sort by_name
    in
    let histograms =
      Hashtbl.fold
        (fun name (h : Histogram.t) acc ->
          ( name,
            { h_count = h.count; h_sum = h.sum; h_mean = Histogram.mean h;
              h_min = h.minv; h_max = h.maxv } )
          :: acc)
        Histogram.registry []
      |> List.sort by_name
    in
    let agg : (string, span_summary) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun f ->
        match Hashtbl.find_opt agg f.f_path with
        | Some s ->
            Hashtbl.replace agg f.f_path
              { s with s_calls = s.s_calls + 1; s_total = s.s_total +. f.f_dur }
        | None ->
            Hashtbl.add agg f.f_path
              { s_path = f.f_path; s_name = f.f_name; s_depth = f.f_depth;
                s_calls = 1; s_total = f.f_dur })
      !finished;
    let spans =
      Hashtbl.fold (fun _ s acc -> s :: acc) agg []
      (* Lexicographic order on the slash-joined path is a pre-order walk
         of the span tree ('/' sorts before every name character we use). *)
      |> List.sort (fun a b -> String.compare a.s_path b.s_path)
    in
    { counters; histograms; spans }

  let counter t name =
    match List.assoc_opt name t.counters with Some v -> v | None -> 0

  let num_or_null f = if Float.is_nan f then Json.Null else Json.Num f

  let to_json t =
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) t.counters) );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (k, h) ->
                 ( k,
                   Json.Obj
                     [
                       ("count", Json.int h.h_count);
                       ("sum", num_or_null h.h_sum);
                       ("mean", num_or_null h.h_mean);
                       ("min", num_or_null h.h_min);
                       ("max", num_or_null h.h_max);
                     ] ))
               t.histograms) );
        ( "spans",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("path", Json.Str s.s_path);
                     ("depth", Json.int s.s_depth);
                     ("calls", Json.int s.s_calls);
                     ("total_s", Json.Num s.s_total);
                   ])
               t.spans) );
      ]

  let render t =
    let buf = Buffer.create 1024 in
    if t.counters <> [] then begin
      Buffer.add_string buf "counters:\n";
      Buffer.add_string buf
        (Table.render
           ~aligns:[| Table.Left; Table.Right |]
           ~headers:[ "counter"; "value" ]
           (List.map (fun (k, v) -> [ k; string_of_int v ]) t.counters));
      Buffer.add_char buf '\n'
    end;
    if t.histograms <> [] then begin
      Buffer.add_string buf "histograms:\n";
      Buffer.add_string buf
        (Table.render
           ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
           ~headers:[ "histogram"; "count"; "mean"; "min"; "max" ]
           (List.map
              (fun (k, h) ->
                [ k; string_of_int h.h_count; Printf.sprintf "%.6g" h.h_mean;
                  Printf.sprintf "%.6g" h.h_min; Printf.sprintf "%.6g" h.h_max ])
              t.histograms));
      Buffer.add_char buf '\n'
    end;
    if t.spans <> [] then begin
      Buffer.add_string buf "spans:\n";
      Buffer.add_string buf
        (Table.render
           ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
           ~headers:[ "span"; "calls"; "total"; "mean" ]
           (List.map
              (fun s ->
                [
                  String.make (2 * s.s_depth) ' ' ^ s.s_name;
                  string_of_int s.s_calls;
                  Printf.sprintf "%.6fs" s.s_total;
                  Printf.sprintf "%.6fs" (s.s_total /. float_of_int s.s_calls);
                ])
              t.spans))
    end;
    Buffer.contents buf
end
