(** Authenticated synchronous message network (Appendix C): a message
    sent in round τ reaches its recipient at round τ+1; the adversary
    observes and may reorder within a round but cannot drop, delay or
    forge. *)

type 'msg envelope = { sender : string; recipient : string; payload : 'msg }

type 'msg t

val create : ?log_cap:int -> unit -> 'msg t
(** [log_cap] bounds the retained traffic log (the queue of in-flight
    messages is always bounded by the synchrony assumption); without it
    the log keeps every message ever sent, and with [log_cap = 0] it
    keeps none. *)

val send :
  'msg t -> round:int -> sender:string -> recipient:string -> 'msg -> unit
(** O(1) enqueue. *)

val deliver : 'msg t -> round:int -> recipient:string -> 'msg envelope list
(** Remove and return the messages due for a recipient, in sending
    order. *)

val in_flight : 'msg t -> (int * 'msg envelope) list
(** Undelivered messages as [(delivery round, envelope)], newest
    first — the adversary's observation of traffic still in transit. *)

val drop : 'msg t -> ('msg envelope -> bool) -> int
(** Adversarially remove matching in-flight messages, returning the
    number removed. Party-to-party delivery under F_GDC is guaranteed,
    so this primitive exists for the *best-effort* links the model
    checker corrupts (channel-to-watchtower notifications); the
    traffic log still records dropped messages as sent. *)

val log : 'msg t -> (int * 'msg envelope) list
(** Retained traffic log, newest first (adversary observation,
    accounting); truncated to the newest [log_cap] entries when a cap
    was set. *)

val total_sent : 'msg t -> int
(** Messages ever sent — independent of log capping. *)
