(** The repository benchmark: Daric payments guarded by a durable
    watchtower, and fraud waves the tower must punish.

    One process runs one workload for a time budget, as a sequence of
    epochs. Each epoch builds a fresh system (set-up), runs a timed
    payment phase with tower rounds and crash+recoveries, then a timed
    fraud storm that publishes a revoked commit on every channel, 32
    at a time. Everything is timed from here, around calls into the
    libraries' public functions; counts come from their public
    counters. The last line of standard output is one JSON object.

    {v main.exe --workload pay-hot --seed 1 --seconds 10 --trace 0 v}

    With [--trace 1] the epochs alternate untraced and traced; the
    traced ones record spans (see {!Trace}) and the runtime's GC
    phases, and the per-layer metrics are printed instead of the
    end-to-end ones. See NOTES.md for every metric's definition. *)

module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme
module Ledger = Daric_chain.Ledger
module Tx = Daric_tx.Tx
module Watchtower = Daric_core.Watchtower
module Durable = Daric_core.Durable
module Keyctx = Daric_crypto.Keyctx
module Schnorr = Daric_crypto.Schnorr
module Sha256 = Daric_crypto.Sha256
module Dpool = Daric_util.Dpool
module S = Samples

type workload = {
  name : string;
  channels : int;
  warmup : int;  (** payments run inside set-up, untimed *)
}

(* Why each workload has these sizes: see NOTES.md. *)
let workloads =
  [ { name = "pay-hot"; channels = 32; warmup = 2048 };
    { name = "pay-wide"; channels = 1024; warmup = 0 } ]

let payments = 4096  (* timed payments per epoch *)
let min_epochs = 3
let pay_per_round = 16
let recover_every = 64  (* tower rounds between crash+recoveries *)
let wave = 32
let delta = 1
let channel_value = 1_000_000

(* ------------------------------------------------------------------ *)
(* Checks and accumulators.                                            *)

let attempted = ref 0
let failed = ref 0

(** Count one checked operation; a failed check is counted, never
    fatal. *)
let check ok =
  incr attempted;
  if not ok then incr failed

(** Samples and counters of one tracing mode; a traced run keeps one
    per mode so it can compare its untraced and traced epochs. Times
    are in nanoseconds. Samples are pooled over all the mode's epochs. *)
type acc = {
  setup : S.t;
  pay : S.t;
  round : S.t;  (** idle (payment-phase) tower rounds *)
  snap_round : S.t;  (** the idle rounds in which the tower snapshotted *)
  block : S.t;  (** fraud block ticks *)
  react : S.t;
  wave_ns : S.t;
  recover : S.t;  (** recover call + first catch-up poll *)
  mutable punish_max : int;
  mutable paid : int;
  mutable pay_ns : int;  (** wall time of the payment phases *)
  mutable pay_rounds : int;
  mutable ticks : int;
      (** ledger ticks inside the payment phases' updates (the height
          gained, less the tower rounds) *)
  mutable signs : int;
  mutable verifies : int;
  mutable exps : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable minor_pause_ns : int;
  mutable major_slice_ns : int;
  mutable wal_bytes : int;
  mutable watches : int;
  mutable blocks : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable replayed : int;
  mutable recoveries : int;
  snapshot_bytes : S.t;
  (* One value per epoch, read after set-up. *)
  mutable tower_bpc : float list;
  mutable party_bpc : float list;
  mutable words_pc : float list;
  mutable arena_bpc : float list;
  mutable pinned_share : float list;
  mutable tables : float list;
}

let new_acc () =
  { setup = S.create (); pay = S.create (); round = S.create ();
    snap_round = S.create (); block = S.create (); react = S.create ();
    wave_ns = S.create (); recover = S.create (); punish_max = 0; paid = 0;
    pay_ns = 0; pay_rounds = 0; ticks = 0; signs = 0; verifies = 0; exps = 0;
    minor_words = 0.; promoted_words = 0.; minor_gcs = 0;
    minor_pause_ns = 0; major_slice_ns = 0; wal_bytes = 0; watches = 0;
    blocks = 0; accepted = 0; rejected = 0; replayed = 0; recoveries = 0;
    snapshot_bytes = S.create (); tower_bpc = []; party_bpc = [];
    words_pc = []; arena_bpc = []; pinned_share = []; tables = [] }

(* ------------------------------------------------------------------ *)
(* One epoch's system.                                                 *)

type sys = {
  w : workload;
  rs : Random.State.t;
  acc : acc;
  traced : bool;
  env : I.env;
  chans : DS.state array;
  mutable tower : Durable.t;
  mutable since_recover : int;  (** tower rounds since the last recovery *)
  mutable recording : bool;  (** false during the set-up warm-up *)
}

let ledger s = s.env.I.ledger
let post s tx = Ledger.post (ledger s) tx ~delay:0
let fresh_balance rs = 100_000 + Random.State.int rs 800_001

let open_channel env ~seed rs k =
  let bal_a = fresh_balance rs in
  let cfg =
    { I.default_config with
      chan_id = Printf.sprintf "c%d" k;
      party_seed = 1_000 + (seed * 100_000) + (2 * k);
      bal_a;
      bal_b = channel_value - bal_a }
  in
  match DS.Scheme.open_channel env cfg with
  | Ok c -> c
  | Error e -> failwith ("set-up: " ^ I.error_to_string e)

(** The op counts and ledger ticks of the first payment; every later
    payment must repeat them exactly. *)
let first_cost = ref None

(** One protected payment: the off-chain update, the refreshed record,
    and the tower's journaled watch. *)
let payment s c =
  let bal_a = fresh_balance s.rs in
  let sn0 = DS.Scheme.sn c in
  let ops0 = DS.Scheme.ops c and h0 = Ledger.height (ledger s) in
  let wal0 = Durable.wal_bytes s.tower in
  let t0 = S.now () in
  let r = DS.Scheme.update c ~bal_a ~bal_b:(channel_value - bal_a) in
  let t1 = S.now () in
  let record = DS.watch_record c in
  let t2 = S.now () in
  let watched =
    match record with Some rc -> Durable.watch s.tower rc | None -> false
  in
  let t3 = S.now () in
  let cost = (I.ops_sub (DS.Scheme.ops c) ops0, Ledger.height (ledger s) - h0) in
  if !first_cost = None then first_cost := Some cost;
  check
    (r = Ok () && DS.Scheme.sn c = sn0 + 1 && watched
    && Some cost = !first_cost);
  if s.recording then begin
    let a = s.acc in
    S.add a.pay (t3 - t0);
    a.wal_bytes <- a.wal_bytes + Durable.wal_bytes s.tower - wal0;
    a.watches <- a.watches + 1;
    let p = Trace.span "payment" t0 t3 in
    ignore (Trace.span ~parent:p "daric_scheme.update" t0 t1);
    ignore (Trace.span ~parent:p "watchtower.record_for" t1 t2);
    ignore (Trace.span ~parent:p "durable.watch" t2 t3)
  end

let sorted_punished tw = List.sort compare (Watchtower.punished tw)

(** Drop the tower's RAM and rebuild it from its store, then run the
    first catch-up poll. The recovered tower must equal the crashed
    one in guarded channels, punished set and spent-log cursor. *)
let crash_recover s =
  let old = Durable.tower s.tower in
  let guarded = Watchtower.guarded_count old
  and punished = sorted_punished old
  and cursor = Watchtower.cursor old in
  let t0 = S.now () in
  let r = Durable.recover ~wid:"tower" (Durable.store s.tower) in
  let t1 = S.now () in
  s.since_recover <- 0;
  match r with
  | Error _ -> check false
  | Ok r ->
      let tw = Durable.tower r.Durable.t in
      check
        (Watchtower.guarded_count tw = guarded
        && sorted_punished tw = punished
        && Watchtower.cursor tw = cursor);
      let t2 = S.now () in
      Durable.end_of_round r.Durable.t ~round:(Ledger.height (ledger s))
        ~ledger:(ledger s) ~post:(post s);
      let t3 = S.now () in
      s.tower <- r.Durable.t;
      if s.recording then begin
        let a = s.acc in
        S.add a.recover (t1 - t0 + (t3 - t2));
        a.replayed <- a.replayed + r.Durable.replayed;
        a.recoveries <- a.recoveries + 1;
        let p = Trace.span "recovery" t0 t3 in
        ignore (Trace.span ~parent:p "durable.recover" t0 t1);
        ignore (Trace.span ~parent:p "durable.catchup" t2 t3)
      end

let maybe_recover s =
  if s.since_recover >= recover_every then crash_recover s

type round_kind = Idle | Fraud_block | Revocation_block

(** One tower round: the ledger tick, then the durable tower's poll.
    Returns the round's duration. *)
let tower_round s kind =
  let snaps = Durable.snapshots_taken s.tower in
  let t0 = S.now () in
  let events = Ledger.tick (ledger s) in
  let t1 = S.now () in
  Durable.end_of_round s.tower ~round:(Ledger.height (ledger s))
    ~ledger:(ledger s) ~post:(post s);
  let t2 = S.now () in
  s.since_recover <- s.since_recover + 1;
  if s.recording then begin
    let a = s.acc in
    let snapshot = Durable.snapshots_taken s.tower > snaps in
    if snapshot then S.add a.snapshot_bytes (Durable.snapshot_bytes s.tower);
    let tick, poll =
      match kind with
      | Idle ->
          S.add a.round (t2 - t0);
          if snapshot then S.add a.snap_round (t2 - t0);
          a.pay_rounds <- a.pay_rounds + 1;
          ( "ledger.tick_idle",
            if snapshot then "durable.snapshot_poll" else "durable.poll" )
      | Fraud_block ->
          S.add a.block (t1 - t0);
          S.add a.react (t2 - t1);
          ("ledger.tick_block", "durable.react")
      | Revocation_block ->
          ("ledger.tick_revocation_block", "durable.poll_revocations")
    in
    if kind = Fraud_block then begin
      a.blocks <- a.blocks + 1;
      List.iter
        (function
          | Ledger.Accepted _ -> a.accepted <- a.accepted + 1
          | Ledger.Rejected _ -> a.rejected <- a.rejected + 1)
        events
    end;
    let p = Trace.span "round" t0 t2 in
    ignore (Trace.span ~parent:p tick t0 t1);
    ignore (Trace.span ~parent:p poll t1 t2)
  end;
  if s.traced then Trace.Gc_events.poll ();
  t2 - t0

(** [n] payments on seeded-random channels, a tower round after every
    16th, a crash+recovery every [recover_every] rounds. *)
let pay_phase s n =
  let nch = Array.length s.chans in
  for i = 1 to n do
    payment s s.chans.(Random.State.int s.rs nch);
    if i mod pay_per_round = 0 then begin
      maybe_recover s;
      ignore (tower_round s Idle)
    end
  done

(** The round in which the revocation answering the revoked commit
    published on [c] confirmed. *)
let revocation_round s c =
  let l = ledger s in
  match Ledger.spender_of l (DS.Scheme.funding c) with
  | None -> None
  | Some commit ->
      List.init (List.length commit.Tx.outputs) (Tx.outpoint_of commit)
      |> List.find_map (fun op -> Ledger.spender_of l op)
      |> Option.map Tx.txid
      |> Fun.flip Option.bind (Ledger.recorded_round_of l)

(** Time one [Ledger.validate] of each fraud commit due next round
    (traced epochs only). *)
let time_validations s =
  let l = ledger s in
  List.iter
    (fun (due, txs) ->
      if due <= Ledger.height l + 1 then
        List.iter
          (fun tx ->
            let t0 = S.now () in
            let ok = Ledger.validate l tx = Ok () in
            let t1 = S.now () in
            check ok;
            ignore (Trace.span "ledger.validate" t0 t1))
          txs)
    (Ledger.pending_due l)

(** Publish a revoked commit on every channel, [wave] at a time with
    both parties frozen: fraud block, tower reaction, revocation
    block, poll. Every fraud must be punished within 2Δ+1 rounds. *)
let storm s =
  let a = s.acc in
  for w = 0 to (Array.length s.chans / wave) - 1 do
    maybe_recover s;
    let slice = Array.sub s.chans (w * wave) wave in
    let h0 = Ledger.height (ledger s) in
    let t0 = S.now () in
    Array.iter DS.publish_revoked slice;
    let t1 = S.now () in
    if s.traced then time_validations s;
    let r1 = tower_round s Fraud_block in
    let r2 = tower_round s Revocation_block in
    S.add a.wave_ns (t1 - t0 + r1 + r2);
    Array.iter
      (fun c ->
        let punished =
          Watchtower.punished_mem (Durable.tower s.tower) (DS.chan_id c)
        in
        match revocation_round s c with
        | Some r when punished ->
            a.punish_max <- max a.punish_max (r - h0);
            check (r - h0 <= (2 * delta) + 1)
        | _ -> check false)
      slice
  done;
  check (Watchtower.guarded_count (Durable.tower s.tower) = 0)

let sum_ops chans =
  Array.fold_left
    (fun (o : I.ops) c ->
      let p = DS.Scheme.ops c in
      { I.signs = o.signs + p.signs; verifies = o.verifies + p.verifies;
        exps = o.exps + p.exps })
    I.ops_zero chans

(** One epoch: set-up, payment phase, fraud storm. Returns the
    channels, for the unit-cost probes. *)
let epoch w ~seed ~rs ~acc ~traced =
  let pay_from = S.length acc.pay in
  Keyctx.clear ();
  let t0 = S.now () in
  let env = I.make_env ~delta ~seed () in
  let chans = Array.init w.channels (open_channel env ~seed rs) in
  Array.iter
    (fun c ->
      let bal_a = fresh_balance rs in
      check (DS.Scheme.update c ~bal_a ~bal_b:(channel_value - bal_a) = Ok ()))
    chans;
  let tower = Durable.create ~wid:"tower" (Durable.memory_store ()) in
  Array.iter
    (fun c ->
      check
        (match DS.watch_record c with
         | Some r -> Durable.watch tower r
         | None -> false))
    chans;
  let s =
    { w; rs; acc; traced; env; chans; tower; since_recover = 0;
      recording = false }
  in
  pay_phase s w.warmup;
  let setup_ns = S.now () - t0 in
  (* Memory and storage at a fixed point, outside every timing. The
     retained heap is the words reachable from the epoch's system. *)
  let words = Obj.reachable_words (Obj.repr (env, chans, s.tower)) in
  let tw = Durable.tower s.tower in
  let tower_bytes = Watchtower.storage_bytes tw in
  check
    (tower_bytes
    = Watchtower.fold_records tw (fun r b -> b + Watchtower.record_bytes r) 0);
  let party_bytes =
    Array.fold_left (fun b c -> b + DS.Scheme.party_bytes c) 0 chans
  in
  let n = float_of_int w.channels in
  S.add acc.setup setup_ns;
  acc.tower_bpc <- (float_of_int tower_bytes /. n) :: acc.tower_bpc;
  acc.party_bpc <- (float_of_int party_bytes /. n) :: acc.party_bpc;
  acc.words_pc <- (float_of_int words /. n) :: acc.words_pc;
  acc.arena_bpc <- (float_of_int (Watchtower.arena_live_bytes tw) /. n) :: acc.arena_bpc;
  let ks = Keyctx.stats () in
  acc.pinned_share <- (float_of_int ks.Keyctx.pinned /. (8. *. n)) :: acc.pinned_share;
  acc.tables <- float_of_int ks.Keyctx.tables :: acc.tables;
  (* Timed phases, each from a collected heap so that the major-GC
     debt of the previous phase does not land on its first samples. *)
  Gc.full_major ();
  s.since_recover <- 0;
  s.recording <- true;
  Trace.on := traced;
  if traced then Trace.Gc_events.reset ();
  let ops0 = sum_ops chans in
  let h0 = Ledger.height env.I.ledger in
  let rounds0 = acc.pay_rounds in
  let gc0 = Gc.quick_stat () in
  let p0 = S.now () in
  pay_phase s payments;
  let pay_ns = S.now () - p0 in
  let gc1 = Gc.quick_stat () in
  let ops = I.ops_sub (sum_ops chans) ops0 in
  acc.paid <- acc.paid + payments;
  acc.pay_ns <- acc.pay_ns + pay_ns;
  acc.ticks <-
    acc.ticks + (Ledger.height env.I.ledger - h0) - (acc.pay_rounds - rounds0);
  acc.signs <- acc.signs + ops.I.signs;
  acc.verifies <- acc.verifies + ops.I.verifies;
  acc.exps <- acc.exps + ops.I.exps;
  acc.minor_words <- acc.minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
  acc.promoted_words <-
    acc.promoted_words +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
  acc.minor_gcs <-
    acc.minor_gcs + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
  if traced then begin
    Trace.Gc_events.poll ();
    acc.minor_pause_ns <- acc.minor_pause_ns + !Trace.Gc_events.minor_ns;
    acc.major_slice_ns <- acc.major_slice_ns + !Trace.Gc_events.major_ns
  end;
  Gc.full_major ();
  storm s;
  Trace.on := false;
  Printf.printf "epoch setup_s=%.4g pay_us_p50=%.4g payments_per_s=%.4g\n"
    (float_of_int setup_ns /. 1e9)
    (S.quantile ~from:pay_from acc.pay 0.5 /. 1e3)
    (float_of_int payments *. 1e9 /. float_of_int pay_ns);
  chans

(* ------------------------------------------------------------------ *)
(* Unit costs, timed after the run on the last epoch's keys.           *)

(** Median over 41 batches of 200 calls, in microseconds per call. *)
let unit_cost_us f =
  let batches = S.create () in
  for _ = 1 to 41 do
    let t0 = S.now () in
    for _ = 1 to 200 do
      ignore (Sys.opaque_identity (f ()))
    done;
    S.add batches (S.now () - t0)
  done;
  S.median batches /. 200. /. 1000.

let main_pk c =
  match DS.Scheme.known_pubkeys c with
  | enc :: _ -> Schnorr.decode_public_key enc
  | [] -> None

(** Sign/verify/hash unit costs. Verification runs against channel
    keys — the first channel's (pinned in the key pool) and the last
    channel's when it is not resident, else a fresh key — with a
    signature by another key: the check computes in full and fails. *)
let unit_costs ~seed chans =
  let sk, fresh_pk = Schnorr.keygen (Daric_util.Rng.create ~seed) in
  let kc = Keyctx.of_secret sk in
  let msg = Sha256.digest (Printf.sprintf "perfbench %d" seed) in
  let sg = Schnorr.sign_keyed kc msg in
  let pinned = main_pk chans.(0) in
  let unpinned =
    match main_pk chans.(Array.length chans - 1) with
    | Some pk when Keyctx.peek pk = None -> pk
    | _ -> fresh_pk
  in
  let block = String.make 64 'x' in
  let verify pk () = Schnorr.verify_pooled pk msg sg in
  ( unit_cost_us (fun () -> Schnorr.sign_keyed kc msg),
    (match pinned with
     | Some pk when Keyctx.peek pk <> None -> unit_cost_us (verify pk)
     | _ -> Float.nan),
    unit_cost_us (verify unpinned),
    unit_cost_us (fun () -> Sha256.digest block) )

(* ------------------------------------------------------------------ *)
(* Report.                                                             *)

let us ns = ns /. 1e3
let ms ns = ns /. 1e6
let per a b = float_of_int a /. float_of_int (max b 1)

(** The end-to-end metrics of a run. Each timing metric is taken over
    the samples of all the run's epochs pooled; see NOTES.md for why
    not per epoch, and why payments report their p10 rather than
    their median. *)
let end_to_end (a : acc) =
  [ ("setup_s", S.median a.setup /. 1e9, "s");
    ("pay_us_p10", us (S.quantile a.pay 0.1), "us");
    ("pay_us_p99", us (S.p99 a.pay), "us");
    ("payments_per_s", per a.paid a.pay_ns *. 1e9, "1/s");
    ("frauds_per_s", float_of_int wave *. 1e9 /. S.median a.wave_ns, "1/s");
    ("punish_rounds_max", float_of_int a.punish_max, "rounds");
    ("recover_ms_p50", ms (S.median a.recover), "ms");
    ("tower_bytes_per_channel", S.median_floats a.tower_bpc, "B");
    ("party_bytes_per_channel", S.median_floats a.party_bpc, "B");
    ("live_words_per_channel", S.median_floats a.words_pc, "words") ]

let per_layer ~seed ~chans ~(plain : acc) ~(traced : acc) =
  let d nm = Trace.durations nm in
  let sign, ver_pinned, ver_unpinned, sha = unit_costs ~seed chans in
  let paid = traced.paid in
  let signs = per traced.signs paid and verifies = per traced.verifies paid in
  let update_p50 = us (S.median (d "daric_scheme.update")) in
  let pinned_share = S.median_floats traced.pinned_share in
  let verify_us =
    if Float.is_nan ver_pinned then ver_unpinned
    else (pinned_share *. ver_pinned) +. ((1. -. pinned_share) *. ver_unpinned)
  in
  let record_for_p50 = us (S.median (d "watchtower.record_for")) in
  let watch_p50 = us (S.median (d "durable.watch")) in
  let block_txs = traced.accepted + traced.rejected in
  [ ("pay_us_p50", us (S.median plain.pay), "us");
    ("daric_scheme.update_us_p50", update_p50, "us");
    ("daric_scheme.update_us_p99", us (S.p99 (d "daric_scheme.update")), "us");
    ("party.signs_per_payment", signs, "count");
    ("party.verifies_per_payment", verifies, "count");
    ("party.exps_per_payment", per traced.exps paid, "count");
    ("ledger.ticks_per_payment", per traced.ticks paid, "count");
    ("schnorr.sign_us", sign, "us");
    ("schnorr.verify_pinned_us", ver_pinned, "us");
    ("schnorr.verify_unpinned_us", ver_unpinned, "us");
    ("sha256.digest_64B_us", sha, "us");
    (* Both parties run in this process and count the same ops, hence
       the factor 2; the responder reuses one counted split signature
       instead of computing it, hence the one sign less. *)
    ( "crypto.share_of_update",
      ((((2. *. signs) -. 1.) *. sign) +. (2. *. verifies *. verify_us))
      /. update_p50,
      "ratio" );
    ("keyctx.pinned_share", pinned_share, "ratio");
    ("keyctx.tables", S.median_floats traced.tables, "count");
    ("watchtower.record_for_us_p50", record_for_p50, "us");
    ("durable.watch_us_p50", watch_p50, "us");
    ("durable.watch_us_p99", us (S.p99 (d "durable.watch")), "us");
    ("durable.wal_bytes_per_watch", per traced.wal_bytes traced.watches, "B");
    ( "watchtower.arena_bytes_per_channel",
      S.median_floats traced.arena_bpc, "B" );
    ("durable.poll_us_p50", us (S.median (d "durable.poll")), "us");
    ("round_us_p50", us (S.median plain.round), "us");
    ("round_us_p99", us (S.p99 (S.concat [ plain.round; traced.round ])), "us");
    ("snapshot_round_us_p50", us (S.median plain.snap_round), "us");
    ("durable.snapshot_ms_p50", ms (S.median (d "durable.snapshot_poll")), "ms");
    ("durable.snapshot_bytes", S.median traced.snapshot_bytes, "B");
    ("durable.recover_call_ms_p50", ms (S.median (d "durable.recover")), "ms");
    ("durable.catchup_us_p50", us (S.median (d "durable.catchup")), "us");
    ( "durable.replayed_per_recover",
      per traced.replayed traced.recoveries, "count" );
    ("react_ms_p50", ms (S.median plain.react), "ms");
    ( "durable.react_us_per_fraud",
      us (S.median (d "durable.react")) /. float_of_int wave, "us" );
    ("ledger.tick_idle_us_p50", us (S.median (d "ledger.tick_idle")), "us");
    ("block_ms_p50", ms (S.median plain.block), "ms");
    ( "ledger.block_us_per_tx",
      us (S.median (d "ledger.tick_block")) /. per block_txs traced.blocks,
      "us" );
    ("ledger.accepted_per_block", per traced.accepted traced.blocks, "count");
    ("ledger.rejected_per_block", per traced.rejected traced.blocks, "count");
    ("ledger.validate_us", us (S.median (d "ledger.validate")), "us");
    ("dpool.domains", float_of_int (Dpool.count ()), "count");
    ( "gc.minor_words_per_payment",
      plain.minor_words /. float_of_int plain.paid, "words" );
    ( "gc.promoted_words_per_payment",
      plain.promoted_words /. float_of_int plain.paid, "words" );
    ( "gc.minor_collections_per_1k_payments",
      1000. *. per plain.minor_gcs plain.paid, "count" );
    ("gc.minor_pause_us_per_payment", us (per traced.minor_pause_ns paid), "us");
    ("gc.major_slice_us_per_payment", us (per traced.major_slice_ns paid), "us");
    ( "trace.overhead_share",
      1.
      -. (per traced.paid traced.pay_ns /. per plain.paid plain.pay_ns),
      "ratio" );
    ( "trace.pay_path_share",
      (update_p50 +. record_for_p50 +. watch_p50)
      /. us (S.median traced.pay),
      "ratio" ) ]

let print_result metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then incr failed;
  let fields =
    List.map
      (fun (nm, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" nm
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: main.exe --workload pay-hot|pay-wide --seed N \
     --seconds S --trace 0|1 [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "time budget");
      ("--trace", Arg.Set_int trace, "0: end-to-end, 1: per-layer");
      ("--spans", Arg.Set_string spans, "span log path (traced run)") ]
    (fun _ -> usage ())
    "perfbench";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let traced_run = !trace = 1 in
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d ocaml=%s domains=%d\n%!"
    w.name !seed !seconds !trace Sys.ocaml_version (Dpool.count ());
  if traced_run then Trace.Gc_events.start ();
  let rs = Random.State.make [| !seed |] in
  let plain = new_acc () and traced = new_acc () and warm = new_acc () in
  let t_start = S.now () in
  let budget = int_of_float (!seconds *. 1e9) in
  let epochs = ref 0 and last = ref [||] in
  while
    !epochs < min_epochs
    || S.now () - t_start < budget
    || traced_run
       && (!epochs mod 2 = 0
          || S.length plain.round + S.length traced.round < S.p99_min)
  do
    (* A traced run alternates untraced and traced epochs after a
       first, warm-up epoch that neither half records. *)
    let tr = traced_run && !epochs mod 2 = 1 in
    let acc =
      if tr then traced else if traced_run && !epochs = 0 then warm else plain
    in
    last := epoch w ~seed:!seed ~rs ~acc ~traced:tr;
    incr epochs
  done;
  Trace.Gc_events.stop ();
  Printf.printf "epochs=%d payments=%d rounds=%d waves=%d recoveries=%d\n%!"
    !epochs (plain.paid + traced.paid)
    (S.length plain.round + S.length traced.round)
    (S.length plain.wave_ns + S.length traced.wave_ns)
    (plain.recoveries + traced.recoveries);
  if traced_run then begin
    if !spans <> "" then Trace.write !spans;
    print_result (per_layer ~seed:!seed ~chans:!last ~plain ~traced)
  end
  else print_result (end_to_end plain)
