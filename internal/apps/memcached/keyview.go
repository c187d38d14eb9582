package memcached

import "unsafe"

// keyView is b's bytes as a string, without copying them: how a request's
// key reaches the Store, whose methods borrow their key for the call. The
// string is valid only while b is unchanged, so it must not outlive the
// request it came from; a store that keeps a key it did not already hold
// makes its own copy. This is the repository's one use of unsafe.
func keyView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
