package load

import (
	"errors"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// Dial connects one client connection to a target (injected to avoid
// coupling the load generator to the testbed or cluster packages).
type Dial func(c *event.Ctx, cb appnet.Callbacks, onConnect func(*event.Ctx, appnet.Conn))

// setup is how long a connection generator lets its handshakes finish
// before the first arrival.
const setup = 5 * sim.Millisecond

// op is one generated request, from its arrival to its response.
type op struct {
	at    sim.Time
	key   int
	isGet bool
}

// codec is a connection's wire protocol. encode builds a request and
// remembers it; decode consumes the whole responses at the front of
// data, calling done with each answered request's arrival time, and
// reports the bytes consumed and, when known, the size the partial
// response after them will reach. An error means the stream is out of
// sync.
type codec interface {
	encode(o op) []byte
	decode(data []byte, done func(at sim.Time)) (consumed, reserve int, err error)
}

var errDesync = errors.New("load: response stream out of sync")

// pool is a generator's connections, one pool per target; arrivals
// for a target go round-robin over its pool.
type pool struct {
	e        *engine
	depth    int // requests a connection keeps outstanding
	conns    [][]*conn
	next     []int
	perShard []uint64 // scored completions per target
}

// conn is one load-generator connection: arrivals queue client-side
// and go out while fewer than the pool's depth are outstanding.
type conn struct {
	p           *pool
	c           appnet.Conn
	mgr         *event.Manager
	shard       int
	codec       codec
	queue       []op
	outstanding int
	rx          iobuf.Stream
	connected   bool
}

// dialPool opens n connections to each target, spread round-robin
// across the client's cores.
func dialPool(e *engine, client appnet.Runtime, dials []Dial, n, depth int, newCodec func() codec) *pool {
	p := &pool{
		e:        e,
		depth:    depth,
		conns:    make([][]*conn, len(dials)),
		next:     make([]int, len(dials)),
		perShard: make([]uint64, len(dials)),
	}
	mgrs := client.Mgrs()
	for s, dial := range dials {
		for i := 0; i < n; i++ {
			cn := &conn{p: p, mgr: mgrs[(s*n+i)%len(mgrs)], shard: s, codec: newCodec()}
			p.conns[s] = append(p.conns[s], cn)
			cn.mgr.Spawn(func(c *event.Ctx) {
				dial(c, appnet.Callbacks{
					OnData: func(c *event.Ctx, _ appnet.Conn, payload *iobuf.IOBuf) { cn.onData(c, payload) },
				}, func(_ *event.Ctx, ac appnet.Conn) { cn.c, cn.connected = ac, true })
			})
		}
	}
	return p
}

// submit hands o to the next connection of target s, on its core.
func (p *pool) submit(s int, o op) {
	cn := p.conns[s][p.next[s]%len(p.conns[s])]
	p.next[s]++
	cn.mgr.Spawn(func(c *event.Ctx) { cn.submit(c, o) })
}

func (cn *conn) submit(c *event.Ctx, o op) {
	cn.queue = append(cn.queue, o)
	cn.pump(c)
}

// again queues a closed loop's next request; the pump after the
// response that triggered it sends it.
func (cn *conn) again(at sim.Time) { cn.queue = append(cn.queue, op{at: at}) }

func (cn *conn) pump(c *event.Ctx) {
	if !cn.connected {
		return
	}
	for cn.outstanding < cn.p.depth && len(cn.queue) > 0 {
		o := cn.queue[0]
		cn.queue = cn.queue[1:]
		cn.outstanding++
		cn.c.Send(c, iobuf.Wrap(cn.codec.encode(o)))
	}
}

func (cn *conn) onData(c *event.Ctx, payload *iobuf.IOBuf) {
	data := cn.rx.Take(payload)
	consumed, reserve, err := cn.codec.decode(data, func(at sim.Time) {
		cn.outstanding--
		if cn.p.e.done(at, c.Now(), cn.again) {
			cn.p.perShard[cn.shard]++
		}
	})
	if err != nil {
		// Retire the connection: its in-flight requests are lost and
		// the run continues on the rest of the pool.
		cn.rx, cn.connected = iobuf.Stream{}, false
		cn.c.Close(c)
		return
	}
	cn.rx.Keep(data, consumed, reserve)
	cn.pump(c)
}
