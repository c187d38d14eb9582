package testbed

import (
	"testing"

	"ebbrt/internal/gpos"
)

func TestKindStrings(t *testing.T) {
	for kind, want := range map[ServerKind]string{
		EbbRT:       "EbbRT",
		LinuxVM:     "Linux",
		LinuxNative: "Linux Native",
		OSv:         "OSV",
	} {
		if kind.String() != want {
			t.Fatalf("%d -> %q, want %q", kind, kind.String(), want)
		}
	}
}

func TestPairTopology(t *testing.T) {
	pair := NewPair(EbbRT, 4, 8)
	if got := len(pair.Server.Mgrs()); got != 4 {
		t.Fatalf("server cores %d", got)
	}
	if got := len(pair.Client.Mgrs()); got != 8 {
		t.Fatalf("client cores %d", got)
	}
	if pair.Client.Kernel() != pair.Server.Kernel() {
		t.Fatal("pair machines on different kernels")
	}
}

func TestSymmetricPairSameKindBothEnds(t *testing.T) {
	pair := NewSymmetricPair(LinuxVM, 1)
	cli, cliOK := pair.Client.(*gpos.Runtime)
	srv, srvOK := pair.Server.(*gpos.Runtime)
	if !cliOK || !srvOK || cli.Cfg != srv.Cfg {
		t.Fatalf("asymmetric: client %T, server %T", pair.Client, pair.Server)
	}
}
