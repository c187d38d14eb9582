//go:build !iobufdebug

package freelist

// Checked is false without the iobufdebug build tag: Put hands a released
// object straight back to the next Get.
const Checked = false
