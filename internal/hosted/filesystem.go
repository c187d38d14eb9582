package hosted

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/future"
)

// FileSystem is the offload Ebb of paper §4.3: native representatives
// function-ship every call to the frontend representative, which serves an
// in-memory filesystem (the stand-in for the Linux filesystem the paper's
// hosted process provides). As the paper notes, this implementation is
// deliberately naive - every access pays a round trip; caching on local
// representatives is the natural extension.
//
// A call's future is fulfilled by the event that receives the reply, after
// the calling event has ended, so a continuation must not use the caller's
// Ctx: one that calls again, or does anything else that takes a Ctx,
// re-enters through Node.Spawn - or the caller blocks on the future
// instead.
type FileSystem struct {
	id  core.Id
	sys *System
}

// Filesystem wire operations.
const (
	fsOpRead = iota
	fsOpWrite
	fsOpStat
	fsOpList
	fsOpReply
)

// fsFrontendRep is the frontend's representative: the actual store.
type fsFrontendRep struct {
	files map[string][]byte
}

// fsNativeRep is a native node's representative: pending call table.
type fsNativeRep struct {
	nextReq uint32
	pending map[uint32]future.Promise[[]byte]
}

// NewFileSystem creates the FileSystem Ebb across all current nodes of the
// system. The frontend holds the store; every node (frontend included) can
// invoke the same interface.
func NewFileSystem(sys *System) *FileSystem {
	fs := &FileSystem{id: sys.AllocateEbbId(), sys: sys}
	frontRep := &fsFrontendRep{files: map[string][]byte{}}
	sys.frontFSRep = frontRep
	// The frontend handles requests.
	sys.Frontend().Messenger.Register(fs.id, func(c *event.Ctx, src NodeId, payload []byte) {
		fs.serveFrontend(c, frontRep, src, payload)
	})
	// Native nodes handle replies.
	for _, node := range sys.Nodes[1:] {
		fs.attachNative(node)
	}
	return fs
}

// attachNative wires the reply handler and representative for one node.
func (fs *FileSystem) attachNative(node *Node) {
	rep := &fsNativeRep{pending: map[uint32]future.Promise[[]byte]{}}
	node.Messenger.Register(fs.id, func(c *event.Ctx, src NodeId, payload []byte) {
		if len(payload) < 9 || payload[0] != fsOpReply {
			return
		}
		reqId := binary.BigEndian.Uint32(payload[1:5])
		status := binary.BigEndian.Uint32(payload[5:9])
		p, ok := rep.pending[reqId]
		if !ok {
			return
		}
		delete(rep.pending, reqId)
		if status != 0 {
			p.SetError(fmt.Errorf("hosted: filesystem error %d", status))
			return
		}
		p.SetValue(payload[9:])
	})
	node.fsRep = rep
}

// call ships one operation from node to the frontend and returns the reply
// future.
func (fs *FileSystem) call(c *event.Ctx, node *Node, op byte, path string, data []byte) future.Future[[]byte] {
	if node.Id == 0 {
		// Frontend-local invocation short-circuits the network.
		rep := fs.localServe(c, op, path, data)
		return rep
	}
	rep := node.fsRep
	reqId := rep.nextReq
	rep.nextReq++
	p := future.NewPromise[[]byte]()
	rep.pending[reqId] = p
	msg := make([]byte, 0, 7+len(path)+len(data))
	msg = append(msg, op)
	var rid [4]byte
	binary.BigEndian.PutUint32(rid[:], reqId)
	msg = append(msg, rid[:]...)
	var plen [2]byte
	binary.BigEndian.PutUint16(plen[:], uint16(len(path)))
	msg = append(msg, plen[:]...)
	msg = append(msg, path...)
	msg = append(msg, data...)
	node.Messenger.Send(c, 0, fs.id, msg)
	return p.Future()
}

// serveFrontend executes a shipped request and replies.
func (fs *FileSystem) serveFrontend(c *event.Ctx, rep *fsFrontendRep, src NodeId, payload []byte) {
	if len(payload) < 7 {
		return
	}
	op := payload[0]
	reqId := binary.BigEndian.Uint32(payload[1:5])
	plen := int(binary.BigEndian.Uint16(payload[5:7]))
	if len(payload) < 7+plen {
		return
	}
	path := string(payload[7 : 7+plen])
	data := payload[7+plen:]
	out, status := rep.execute(op, path, data)
	reply := make([]byte, 9+len(out))
	reply[0] = fsOpReply
	binary.BigEndian.PutUint32(reply[1:5], reqId)
	binary.BigEndian.PutUint32(reply[5:9], status)
	copy(reply[9:], out)
	fs.sys.Frontend().Messenger.Send(c, src, fs.id, reply)
}

// localServe executes an operation on the frontend without the messenger.
func (fs *FileSystem) localServe(c *event.Ctx, op byte, path string, data []byte) future.Future[[]byte] {
	rep := fs.frontRepOf()
	out, status := rep.execute(op, path, data)
	if status != 0 {
		return future.Fail[[]byte](fmt.Errorf("hosted: filesystem error %d", status))
	}
	return future.Ready(out)
}

func (fs *FileSystem) frontRepOf() *fsFrontendRep {
	// The frontend rep is captured by its messenger handler; reconstruct
	// access through a stashed pointer on the system.
	return fs.sys.frontFSRep
}

func (r *fsFrontendRep) execute(op byte, path string, data []byte) ([]byte, uint32) {
	switch op {
	case fsOpRead:
		content, ok := r.files[path]
		if !ok {
			return nil, 2 // ENOENT
		}
		return content, 0
	case fsOpWrite:
		r.files[path] = append([]byte(nil), data...)
		return nil, 0
	case fsOpStat:
		content, ok := r.files[path]
		if !ok {
			return nil, 2
		}
		var size [8]byte
		binary.BigEndian.PutUint64(size[:], uint64(len(content)))
		return size[:], 0
	case fsOpList:
		var names []string
		// order-free: the names are sorted below.
		for name := range r.files {
			names = append(names, name)
		}
		sort.Strings(names)
		out := []byte{}
		for _, name := range names {
			out = append(out, name...)
			out = append(out, 0)
		}
		return out, 0
	}
	return nil, 1
}

// Read returns the file contents.
func (fs *FileSystem) Read(c *event.Ctx, node *Node, path string) future.Future[[]byte] {
	return fs.call(c, node, fsOpRead, path, nil)
}

// Write stores the file contents.
func (fs *FileSystem) Write(c *event.Ctx, node *Node, path string, data []byte) future.Future[future.Unit] {
	return future.ThenOK(fs.call(c, node, fsOpWrite, path, data), func([]byte) (future.Unit, error) {
		return future.Unit{}, nil
	})
}

// Stat returns the file size.
func (fs *FileSystem) Stat(c *event.Ctx, node *Node, path string) future.Future[uint64] {
	return future.ThenOK(fs.call(c, node, fsOpStat, path, nil), func(b []byte) (uint64, error) {
		if len(b) != 8 {
			return 0, fmt.Errorf("hosted: malformed stat reply")
		}
		return binary.BigEndian.Uint64(b), nil
	})
}

// List returns all file names.
func (fs *FileSystem) List(c *event.Ctx, node *Node) future.Future[[]string] {
	return future.ThenOK(fs.call(c, node, fsOpList, "", nil), func(b []byte) ([]string, error) {
		var names []string
		start := 0
		for i, ch := range b {
			if ch == 0 {
				names = append(names, string(b[start:i]))
				start = i + 1
			}
		}
		return names, nil
	})
}
