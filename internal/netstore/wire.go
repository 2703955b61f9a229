// Package netstore serves Ripple's store and mq SPIs from standalone
// part-server processes over a framed-TCP transport, proving the paper's
// thesis — that the narrow SPIs make the storage layer swappable — across a
// real network boundary.
//
// The wire format reuses the pooled tagged codec: every RPC is one `frame`
// (request) answered by one `frame` (response), each codec-encoded and
// length-prefixed on the socket. Keys and values cross the wire as opaque
// codec encodings, so the servers never need the client's Go types; part
// placement is computed client-side by rendezvous hashing over the server
// list, which keeps every table co-placed by part index (the ShardView
// co-placement contract) without any server-side coordination.
//
// The client mounts behind the existing SPI interfaces (kvstore.Store,
// mq.Queuing) with per-request deadlines, bounded seeded-jitter retries,
// heartbeat failure detection, and replica failover that feeds the engine's
// heal/checkpoint-restore path via the Healer and FailureSensor
// capabilities.
package netstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/mq"
)

// Wire opcodes. The opcode set is the transport's whole vocabulary: the
// narrow SPIs translate to under twenty request kinds.
const (
	opPing        uint8 = iota + 1 // liveness + boot identity (Aux = bootID)
	opCreateTable                  // Name, Part = parts, Flag = ubiquitous, Aux = ordered
	opDropTable                    // Name
	opLookupTable                  // Name; response mirrors opCreateTable's fields
	opTables                       // response Pairs carry table names in creation order
	opGet                          // Name, Part, Key; response Val, Flag = found
	opPut                          // Name, Part, Key, Val
	opDelete                       // Name, Part, Key
	opLen                          // Name, Part; response Aux = pairs in part
	opSnapshot                     // Name, Part; response Pairs = every pair in part
	opClearPart                    // Name, Part
	opPutBatch                     // Name, Part, Pairs (Absent = delete); applied atomically under the shard lock
	opGetBatch                     // Name, Part, Pairs = keys; response Pairs = values in request order (Absent = miss)
	opMQCreate                     // Name, Part = queues
	opMQDelete                     // Name
	opMQPut                        // Name, Part = queue, Val = message
	opMQRead                       // Name, Part = queue, Aux = timeout ns; response Val, Flag = ok
	opMQLen                        // Name, Part = queue; response Aux = queued messages
	opMQClose                      // Name

	// Admin telemetry ops: the fleet observability plane rides the same
	// codec and connections as data. Payloads are JSON in Val — telemetry
	// is low-rate and schema-evolving, so self-describing beats fast here.
	opStats     // response Val = JSON ServerStats (counters + endpoint histograms)
	opTraceDump // Aux = span-seq cursor; response Val = JSON TraceDump (spans after cursor)
	opHealth    // response Val = JSON ServerHealth (boot identity, uptime, load)
)

// opNames label the endpoints in metrics and trace spans.
var opNames = map[uint8]string{
	opPing:        "ping",
	opCreateTable: "create_table",
	opDropTable:   "drop_table",
	opLookupTable: "lookup_table",
	opTables:      "tables",
	opGet:         "get",
	opPut:         "put",
	opDelete:      "delete",
	opLen:         "len",
	opSnapshot:    "snapshot",
	opClearPart:   "clear_part",
	opPutBatch:    "put_batch",
	opGetBatch:    "get_batch",
	opMQCreate:    "mq_create",
	opMQDelete:    "mq_delete",
	opMQPut:       "mq_put",
	opMQRead:      "mq_read",
	opMQLen:       "mq_len",
	opMQClose:     "mq_close",
	opStats:       "stats",
	opTraceDump:   "trace_dump",
	opHealth:      "health",
}

func opName(op uint8) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", op)
}

// OpName names a wire opcode for logs and fault records (injectors receive
// raw opcodes).
func OpName(op uint8) string { return opName(op) }

// Canonical error codes. Server-side errors cross the wire as a code plus
// the message text, and the client reconstructs an error wrapping the
// matching canonical sentinel — errors.Is keeps working across the network
// exactly as it does in-process.
const (
	errNone uint8 = iota
	errCodeOther
	errCodeNoTable
	errCodeTableExists
	errCodeBadPart
	errCodeClosed
	errCodeTransient
	errCodeNoQueue
	errCodeMQExists
	errCodeMQClosed
	errCodeMQTransient
)

// errCodeOf classifies an error into its wire code.
func errCodeOf(err error) uint8 {
	switch {
	case err == nil:
		return errNone
	case errors.Is(err, kvstore.ErrNoTable):
		return errCodeNoTable
	case errors.Is(err, kvstore.ErrTableExists):
		return errCodeTableExists
	case errors.Is(err, kvstore.ErrBadPart):
		return errCodeBadPart
	case errors.Is(err, kvstore.ErrClosed):
		return errCodeClosed
	case errors.Is(err, kvstore.ErrTransient):
		return errCodeTransient
	case errors.Is(err, mq.ErrNoQueue):
		return errCodeNoQueue
	case errors.Is(err, mq.ErrExists):
		return errCodeMQExists
	case errors.Is(err, mq.ErrClosed):
		return errCodeMQClosed
	case errors.Is(err, mq.ErrTransient):
		return errCodeMQTransient
	default:
		return errCodeOther
	}
}

// errFromCode reconstructs a client-side error from a response's code and
// message, wrapping the canonical sentinel the server classified.
func errFromCode(code uint8, msg string) error {
	switch code {
	case errNone:
		return nil
	case errCodeNoTable:
		return fmt.Errorf("netstore: %s: %w", msg, kvstore.ErrNoTable)
	case errCodeTableExists:
		return fmt.Errorf("netstore: %s: %w", msg, kvstore.ErrTableExists)
	case errCodeBadPart:
		return fmt.Errorf("netstore: %s: %w", msg, kvstore.ErrBadPart)
	case errCodeClosed:
		return fmt.Errorf("netstore: %s: %w", msg, kvstore.ErrClosed)
	case errCodeTransient:
		return fmt.Errorf("netstore: %s: %w", msg, kvstore.ErrTransient)
	case errCodeNoQueue:
		return fmt.Errorf("netstore: %s: %w", msg, mq.ErrNoQueue)
	case errCodeMQExists:
		return fmt.Errorf("netstore: %s: %w", msg, mq.ErrExists)
	case errCodeMQClosed:
		return fmt.Errorf("netstore: %s: %w", msg, mq.ErrClosed)
	case errCodeMQTransient:
		return fmt.Errorf("netstore: %s: %w", msg, mq.ErrTransient)
	default:
		return fmt.Errorf("netstore: remote error: %s", msg)
	}
}

// wirePair is one key/value pair in its opaque encoded form. Absent marks a
// key with no value: a delete in an opPutBatch request, a miss in an
// opGetBatch response.
type wirePair struct {
	K, V   []byte
	Absent bool
}

// frame is the transport's single message shape, for requests and responses
// alike. Field use is per-opcode (see the opcode comments); unused fields
// encode compactly as zero values.
type frame struct {
	ID    uint64     // request/response correlation, per connection
	Op    uint8      // opcode
	Code  uint8      // response error code (errNone on success and requests)
	Flag  bool       // boolean payload: found / ok / ubiquitous
	Name  string     // table or queue-set name
	Part  int        // part / queue index (also: parts on create)
	Aux   int64      // op-specific integer (timeout ns, lengths, bootID, ordered)
	Key   []byte     // opaque encoded key
	Val   []byte     // opaque encoded value / message / error text on errors
	Pairs []wirePair // snapshot / batch payload
	Trace uint64     // causal trace ID bound by the engine (0 = untraced)
	Span  uint64     // client-side parent span for server span linkage
}

// errText is the response's error message (carried in Val to keep the frame
// field count down).
func (f *frame) errText() string { return string(f.Val) }

func errFrame(req frame, err error) frame {
	return frame{ID: req.ID, Op: req.Op, Code: errCodeOf(err), Val: []byte(err.Error())}
}

// The frame codec: a fast path over the pooled tagged codec, following the
// engine's own wire.go idiom. Registration order assigns the wire tag, so
// this init must stay the package's only RegisterFast call site.
func init() {
	codec.RegisterFast(frame{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			f := v.(frame)
			e.Uvarint(f.ID)
			e.Byte(f.Op)
			e.Byte(f.Code)
			e.Byte(boolByte(f.Flag))
			e.String(f.Name)
			e.Int(f.Part)
			e.Varint(f.Aux)
			e.Uvarint(uint64(len(f.Key)))
			e.Append(f.Key)
			e.Uvarint(uint64(len(f.Val)))
			e.Append(f.Val)
			e.Uvarint(uint64(len(f.Pairs)))
			for _, p := range f.Pairs {
				e.Uvarint(uint64(len(p.K)))
				e.Append(p.K)
				e.Uvarint(uint64(len(p.V)))
				e.Append(p.V)
				e.Byte(boolByte(p.Absent))
			}
			e.Uvarint(f.Trace)
			e.Uvarint(f.Span)
			return nil
		},
		Decode: func(d *codec.Decoder) (any, error) {
			var f frame
			var err error
			if f.ID, err = d.Uvarint(); err != nil {
				return nil, err
			}
			if f.Op, err = d.Byte(); err != nil {
				return nil, err
			}
			if f.Code, err = d.Byte(); err != nil {
				return nil, err
			}
			var b byte
			if b, err = d.Byte(); err != nil {
				return nil, err
			}
			f.Flag = b != 0
			if f.Name, err = d.String(); err != nil {
				return nil, err
			}
			if f.Part, err = d.Int(); err != nil {
				return nil, err
			}
			if f.Aux, err = d.Varint(); err != nil {
				return nil, err
			}
			if f.Key, err = decBytes(d); err != nil {
				return nil, err
			}
			if f.Val, err = decBytes(d); err != nil {
				return nil, err
			}
			n, err := d.Uvarint()
			if err != nil {
				return nil, err
			}
			if n > 0 {
				f.Pairs = make([]wirePair, 0, min(int(n), 1<<16))
				for i := uint64(0); i < n; i++ {
					var p wirePair
					if p.K, err = decBytes(d); err != nil {
						return nil, err
					}
					if p.V, err = decBytes(d); err != nil {
						return nil, err
					}
					if b, err = d.Byte(); err != nil {
						return nil, err
					}
					p.Absent = b != 0
					f.Pairs = append(f.Pairs, p)
				}
			}
			if f.Trace, err = d.Uvarint(); err != nil {
				return nil, err
			}
			if f.Span, err = d.Uvarint(); err != nil {
				return nil, err
			}
			return f, nil
		},
		Copy: func(v any) (any, error) {
			f := v.(frame)
			f.Key = append([]byte(nil), f.Key...)
			f.Val = append([]byte(nil), f.Val...)
			pairs := make([]wirePair, len(f.Pairs))
			for i, p := range f.Pairs {
				pairs[i] = wirePair{K: append([]byte(nil), p.K...), V: append([]byte(nil), p.V...), Absent: p.Absent}
			}
			f.Pairs = pairs
			return f, nil
		},
	})
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decBytes reads a uvarint-length byte field (nil when empty).
func decBytes(d *codec.Decoder) ([]byte, error) {
	s, err := d.String()
	if err != nil {
		return nil, err
	}
	if s == "" {
		return nil, nil
	}
	return []byte(s), nil
}

// maxFrame bounds one frame's encoded size; a length prefix beyond it is
// treated as a corrupt stream, not an allocation request.
const maxFrame = 64 << 20

// errBadFrame marks a corrupt or oversized frame on the stream.
var errBadFrame = errors.New("netstore: corrupt frame")

// writeFrame encodes f and writes it length-prefixed.
func writeFrame(w io.Writer, f frame) error {
	_, err := writeFrameN(w, f)
	return err
}

// writeFrameN is writeFrame reporting the wire bytes written (prefix
// included), for per-server wire accounting.
func writeFrameN(w io.Writer, f frame) (int, error) {
	body, err := codec.Encode(f)
	if err != nil {
		return 0, err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return 0, err
	}
	return 4 + len(body), nil
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) (frame, error) {
	f, _, err := readFrameN(r)
	return f, err
}

// readFrameN is readFrame reporting the wire bytes consumed (prefix
// included), for per-server wire accounting.
func readFrameN(r io.Reader) (frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return frame{}, 0, fmt.Errorf("%w: %d byte frame", errBadFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, 0, err
	}
	v, err := codec.Decode(body)
	if err != nil {
		return frame{}, 0, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	f, ok := v.(frame)
	if !ok {
		return frame{}, 0, fmt.Errorf("%w: decoded a %T", errBadFrame, v)
	}
	return f, 4 + int(n), nil
}

// WireFault is one injected fault decision for one frame crossing the wire.
// The zero WireFault is a clean delivery.
type WireFault struct {
	// DropConn tears the whole connection down before the frame is sent.
	DropConn bool
	// Drop silently loses the frame (the request times out client-side).
	Drop bool
	// Delay postpones the frame's delivery.
	Delay time.Duration
	// Dup delivers the frame twice (the duplicate response is shed by ID
	// correlation; a duplicated request re-executes server-side, modelling
	// an at-least-once retry).
	Dup bool
}

// WireInjector decides wire-level faults. Implementations must be safe for
// concurrent use; internal/chaos provides the deterministic seeded one.
// Heartbeat pings are exempt from Send/RecvFault (their timing is
// wall-clock-dependent, so faulting them would break schedule determinism)
// but do consult PingBlocked so one-way partitions still starve the
// failure detector.
type WireInjector interface {
	// SendFault is consulted once per data frame sent to server, in send
	// order (the per-server frame counter advances).
	SendFault(server int, op uint8) WireFault
	// RecvFault is consulted once per data response received from server.
	RecvFault(server int, op uint8) WireFault
	// PingBlocked reports whether a heartbeat crossing the wire in the given
	// direction is currently inside a partition window. It must not advance
	// any counters.
	PingBlocked(server int, toServer bool) bool
}
