// Package freelist is the one free list: a per-core stack of reusable
// objects that counts what is out and, under the iobufdebug build tag,
// poisons what comes back.
//
// A List is representative state, like everything it recycles: only its
// owning core takes from it, so there are no locks. An object goes home
// to the list it came from, and may do so from an event on another core
// of the same Ebb: a cluster write record is let go of by whichever of
// its acks and spawned hot-key events runs last. The simulation kernel
// runs one event at a time, so that Put never races the owner's Get.
// Objects a List holds embed Node, which is how the list marks them
// released and how they check that they are not.
package freelist

// Node is embedded by every object a List holds.
type Node struct{ released bool }

func (n *Node) node() *Node { return n }

// Live panics, under iobufdebug, if the object has been released: the
// free-list analogue of a finished event's Ctx. Without the tag it does
// nothing.
func (n *Node) Live() {
	if Checked && n.released {
		panic("freelist: object used after its Put")
	}
}

// Elem is what a List holds: a pointer to a type that embeds Node.
type Elem interface{ node() *Node }

// List is a free list of T. New builds an object when the list is empty;
// the list never resets one, so Get's caller owns the object's state from
// Get to Put.
type List[T Elem] struct {
	New  func() T
	free []T
	out  int
	made int
}

// Get returns a released object, or a new one when none is free.
func (l *List[T]) Get() T {
	var x T
	if n := len(l.free); n > 0 {
		x = l.free[n-1]
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	} else {
		x = l.New()
		l.made++
	}
	x.node().released = false
	l.out++
	return x
}

// Put releases x to the list. Releasing an object twice panics.
func (l *List[T]) Put(x T) {
	n := x.node()
	if n.released {
		panic("freelist: object released twice")
	}
	n.released = true
	l.out--
	if !Checked {
		l.free = append(l.free, x)
	}
}

// Outstanding reports the objects handed out by Get and not yet Put.
func (l *List[T]) Outstanding() int { return l.out }

// Made reports the objects New has built: the list's high-water mark, or
// under iobufdebug, every Get.
func (l *List[T]) Made() int { return l.made }
