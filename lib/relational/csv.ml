(* Minimal RFC-4180-style CSV reader/writer.

   Supports quoted fields with embedded separators, quotes ("" escape) and
   newlines.  Used by the CLI to load the two input relations and by the
   generators to persist datasets. *)

let split_record ~sep line_stream =
  (* Parses one logical record (which may span physical lines when a quoted
     field contains a newline) from a function producing physical lines. *)
  match line_stream () with
  | None -> None
  | Some first ->
      let fields = ref [] in
      let buf = Buffer.create 32 in
      let flush_field () =
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf
      in
      let rec scan line i in_quotes =
        if i >= String.length line then
          if in_quotes then (
            (* Quoted newline: pull the next physical line. *)
            match line_stream () with
            | None -> failwith "Csv: unterminated quoted field"
            | Some next ->
                Buffer.add_char buf '\n';
                scan next 0 true)
          else flush_field ()
        else
          let c = line.[i] in
          if in_quotes then
            if c = '"' then
              if i + 1 < String.length line && line.[i + 1] = '"' then begin
                Buffer.add_char buf '"';
                scan line (i + 2) true
              end
              else scan line (i + 1) false
            else begin
              Buffer.add_char buf c;
              scan line (i + 1) true
            end
          else if c = '"' && Buffer.length buf = 0 then scan line (i + 1) true
          else if Char.equal c sep then begin
            flush_field ();
            scan line (i + 1) false
          end
          else begin
            Buffer.add_char buf c;
            scan line (i + 1) false
          end
      in
      scan first 0 false;
      Some (List.rev !fields)

let parse_string ?(sep = ',') text =
  let lines = String.split_on_char '\n' text in
  (* Drop a trailing empty line from a final newline. *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let lines = List.map (fun l ->
      (* Tolerate CRLF input. *)
      let n = String.length l in
      if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)
      lines
  in
  let remaining = ref lines in
  let next_line () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        Some l
  in
  let rec collect acc =
    match split_record ~sep next_line with
    | None -> List.rev acc
    | Some r -> collect (r :: acc)
  in
  collect []

let quote_field ~sep s =
  let needs =
    String.exists
      (fun c -> Char.equal c sep || c = '"' || c = '\n' || c = '\r')
      s
  in
  if not needs then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_string ?(sep = ',') records =
  let buf = Buffer.create 1024 in
  List.iter
    (fun record ->
      Buffer.add_string buf
        (String.concat (String.make 1 sep) (List.map (quote_field ~sep) record));
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

(* Stream records out of a channel: physical lines via [input_line]
   (CRLF-tolerant), logical records via [split_record].  Nothing is
   ever materialized beyond one record — the old reader slurped the
   whole file into a string and split it, which defeated out-of-core
   loading. *)
let fold_channel_records ~sep ic f acc =
  let next_line () =
    match In_channel.input_line ic with
    | None -> None
    | Some l ->
        let n = String.length l in
        if n > 0 && l.[n - 1] = '\r' then Some (String.sub l 0 (n - 1))
        else Some l
  in
  let rec go acc =
    match split_record ~sep next_line with
    | None -> acc
    | Some r -> go (f acc r)
  in
  go acc

let fold_file_records ~sep path f acc =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> fold_channel_records ~sep ic f acc)

let write_file ?sep path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?sep records))

(* Loading a relation: first record is the header; column types are inferred
   from the data unless a schema is supplied. *)
let relation_of_records ~name ?schema records =
  match records with
  | [] -> invalid_arg "Csv: empty input (no header)"
  | header :: data ->
      let ncols = List.length header in
      (* Records become arrays up front: the arity check is then O(1) per
         record and column slicing for type inference is O(rows) per
         column instead of List.nth's O(rows * ncols). *)
      let data = List.map Array.of_list data in
      List.iteri
        (fun i r ->
          if not (Int.equal (Array.length r) ncols) then
            invalid_arg
              (Printf.sprintf "Csv: record %d has %d fields, header has %d"
                 (i + 1) (Array.length r) ncols))
        data;
      let schema =
        match schema with
        | Some s -> s
        | None ->
            let col_cells i = List.map (fun r -> r.(i)) data in
            Schema.of_columns
              (List.mapi
                 (fun i h -> Schema.column h (Value.infer_ty (col_cells i)))
                 header)
      in
      let parse_row r : Tuple.t =
        Array.mapi
          (fun i cell ->
            let ty = Schema.ty_at schema i in
            match Value.parse ty cell with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "Csv: cannot parse %S as %s" cell
                     (Value.ty_name ty)))
          r
      in
      Relation.of_list ~name ~schema (List.map parse_row data)

(* Streaming import: two bounded-memory passes over the file.

   Pass 1 reads the header, checks every record against it (same error
   message and numbering as [relation_of_records]) and — when no
   schema is supplied — folds the per-column type-capability flags
   that replicate [Value.infer_ty] ("can every cell parse as TInt?
   else TFloat? else TBool? else TString") without a column slice.
   Pass 2 re-streams the file, parses each record under the now-known
   schema and hands the tuple to the sink.  Peak memory is one record
   plus whatever the sink keeps — a heap-file sink keeps nothing. *)
let load_into ?(sep = ',') ?schema path ~init ~push =
  let header = ref None in
  let n_data = ref 0 in
  let caps = ref [||] (* per column: can_int, can_float, can_bool *) in
  let see_header h =
    header := Some (Array.of_list h);
    caps := Array.map (fun _ -> (true, true, true)) (Array.of_list h)
  in
  let check_arity r =
    match !header with
    | None -> assert false
    | Some h ->
        incr n_data;
        if not (Int.equal (Array.length r) (Array.length h)) then
          invalid_arg
            (Printf.sprintf "Csv: record %d has %d fields, header has %d"
               !n_data (Array.length r) (Array.length h))
  in
  fold_file_records ~sep path
    (fun () record ->
      match !header with
      | None -> see_header record
      | Some _ ->
          let r = Array.of_list record in
          check_arity r;
          if Option.is_none schema then
            Array.iteri
              (fun i cell ->
                let can_i, can_f, can_b = !caps.(i) in
                (* skip the three parses once the column is TString *)
                if can_i || can_f || can_b then
                  !caps.(i) <-
                    ( (can_i && Value.parse Value.TInt cell <> None),
                      (can_f && Value.parse Value.TFloat cell <> None),
                      (can_b && Value.parse Value.TBool cell <> None) ))
              r)
    ();
  let header =
    match !header with
    | None -> invalid_arg "Csv: empty input (no header)"
    | Some h -> h
  in
  let schema =
    match schema with
    | Some s -> s
    | None ->
        Schema.of_columns
          (List.mapi
             (fun i h ->
               let can_i, can_f, can_b = !caps.(i) in
               let ty =
                 if can_i then Value.TInt
                 else if can_f then Value.TFloat
                 else if can_b then Value.TBool
                 else Value.TString
               in
               Schema.column h ty)
             (Array.to_list header))
  in
  let sink = init schema in
  let parse_cell i cell =
    let ty = Schema.ty_at schema i in
    match Value.parse ty cell with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf "Csv: cannot parse %S as %s" cell (Value.ty_name ty))
  in
  let first = ref true in
  fold_file_records ~sep path
    (fun () record ->
      if !first then first := false
      else push sink (Array.of_list record |> Array.mapi parse_cell))
    ();
  (sink, schema)

let load_relation ?sep ~name ?schema path =
  let vec, schema =
    load_into ?sep ?schema path
      ~init:(fun _ -> Jqi_util.Vec.create ())
      ~push:Jqi_util.Vec.push
  in
  Relation.create ~name ~schema (Jqi_util.Vec.to_array vec)

let records_of_relation rel =
  Schema.names (Relation.schema rel)
  :: List.map
       (fun row -> List.map Value.to_string (Tuple.to_list row))
       (Relation.to_list rel)

let save_relation ?sep path rel = write_file ?sep path (records_of_relation rel)
