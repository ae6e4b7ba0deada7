package machine

import (
	"testing"

	"leaserelease/internal/mem"
)

// TestNoPendingExpiryAfterRelease: every path that ends a started lease
// before its deadline stops its expiry timer, so no expiry is left in the
// event queue once the program is done — the queue holds only live
// deadlines. The run stops well before the lease deadline; a missed Stop
// would show as a pending event there, and as a protocol-violation panic
// when the drain fires it.
func TestNoPendingExpiryAfterRelease(t *testing.T) {
	const dur, until = 10_000, 8_000
	cases := []struct {
		name    string
		cfg     func(*Config)
		bodies  func(a, b, x mem.Addr) []func(*Ctx)
		pending int // lease expiries legitimately left pending
		check   func(t *testing.T, s Stats)
	}{
		{
			name: "voluntary-release",
			bodies: func(a, b, x mem.Addr) []func(*Ctx) {
				return []func(*Ctx){func(c *Ctx) {
					c.Lease(a, dur)
					c.Store(a, 1)
					c.Release(a)
				}}
			},
			check: func(t *testing.T, s Stats) {
				if s.VoluntaryReleases != 1 {
					t.Errorf("voluntary releases = %d, want 1", s.VoluntaryReleases)
				}
			},
		},
		{
			name: "releaseall-multilease",
			bodies: func(a, b, x mem.Addr) []func(*Ctx) {
				return []func(*Ctx){func(c *Ctx) {
					c.Lease(a, dur)
					c.MultiLease(dur, b, x) // releases a first
					c.ReleaseAll()
				}}
			},
			check: func(t *testing.T, s Stats) {
				if s.VoluntaryReleases != 3 || s.MultiLeases != 1 {
					t.Errorf("voluntary releases = %d, multileases = %d; want 3, 1", s.VoluntaryReleases, s.MultiLeases)
				}
			},
		},
		{
			name: "fifo-eviction",
			cfg:  func(c *Config) { c.Lease.MaxNumLeases = 1 },
			bodies: func(a, b, x mem.Addr) []func(*Ctx) {
				return []func(*Ctx){func(c *Ctx) {
					c.Lease(a, dur)
					c.Lease(b, dur) // evicts a
					c.Release(b)
				}}
			},
			check: func(t *testing.T, s Stats) {
				if s.EvictedLeases != 1 {
					t.Errorf("evicted leases = %d, want 1", s.EvictedLeases)
				}
			},
		},
		{
			name: "forced-release",
			cfg: func(c *Config) {
				// One set, two ways: two leased lines pin the whole L1.
				c.L1.SizeBytes, c.L1.Ways = 128, 2
			},
			bodies: func(a, b, x mem.Addr) []func(*Ctx) {
				return []func(*Ctx){func(c *Ctx) {
					c.Lease(a, dur)
					c.Lease(b, dur)
					c.Load(x) // force-releases a
					c.Release(b)
				}}
			},
			check: func(t *testing.T, s Stats) {
				if s.ForcedReleases != 1 {
					t.Errorf("forced releases = %d, want 1", s.ForcedReleases)
				}
			},
		},
		{
			name: "broken-lease",
			cfg:  func(c *Config) { c.RegularBreaksLease = true },
			bodies: func(a, b, x mem.Addr) []func(*Ctx) {
				return []func(*Ctx){
					func(c *Ctx) {
						c.Lease(a, dur)
						c.Work(2_000) // still holding when core 1 stores
					},
					func(c *Ctx) {
						c.Work(500)
						c.Store(a, 1) // regular request: breaks the lease
					},
				}
			},
			check: func(t *testing.T, s Stats) {
				if s.BrokenLeases != 1 {
					t.Errorf("broken leases = %d, want 1", s.BrokenLeases)
				}
			},
		},
		{
			// Control: a lease still held when the program ends keeps its
			// expiry pending, which then fires as an involuntary release.
			name: "held-control",
			bodies: func(a, b, x mem.Addr) []func(*Ctx) {
				return []func(*Ctx){func(c *Ctx) { c.Lease(a, dur) }}
			},
			pending: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			m := New(cfg)
			d := m.Direct()
			a, b, x := d.Alloc(8), d.Alloc(8), d.Alloc(8)
			for _, body := range tc.bodies(a, b, x) {
				m.Spawn(0, body)
			}
			if err := m.Run(until); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < m.spawned; c++ {
				if _, _, _, done := m.cores[c].proc.Status(); !done {
					t.Fatalf("core %d still running at cycle %d", c, until)
				}
			}
			if n := m.eng.Pending(); n != tc.pending {
				t.Fatalf("pending events after the program = %d, want %d", n, tc.pending)
			}
			if err := m.Drain(); err != nil {
				t.Fatal(err)
			}
			s := m.Stats()
			if s.InvoluntaryReleases != uint64(tc.pending) {
				t.Fatalf("involuntary releases = %d, want %d", s.InvoluntaryReleases, tc.pending)
			}
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}

// TestTardisReservationTimersStopped: a Tardis read reservation whose
// record is dropped — the reader promoted to owner, or its Shared copy
// silently evicted — stops its self-invalidation timer, so only live
// reservations stay pending.
func TestTardisReservationTimersStopped(t *testing.T) {
	const until = 1_500 // before the first 2000-cycle reservation ends
	for _, tc := range []struct {
		name    string
		body    func(c *Ctx, a, b, x mem.Addr)
		pending int
	}{
		{"promotion", func(c *Ctx, a, b, x mem.Addr) {
			c.Load(a)
			c.Store(a, 1) // the owner needs no reservation
		}, 0},
		{"sharer-drop", func(c *Ctx, a, b, x mem.Addr) {
			c.Load(a)
			c.Load(b)
			c.Load(x) // evicts a's Shared copy
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1)
			cfg.Protocol = "tardis"
			cfg.L1.SizeBytes, cfg.L1.Ways = 128, 2 // one set, two ways
			m := New(cfg)
			d := m.Direct()
			a, b, x := d.Alloc(8), d.Alloc(8), d.Alloc(8)
			m.Spawn(0, func(c *Ctx) { tc.body(c, a, b, x) })
			if err := m.Run(until); err != nil {
				t.Fatal(err)
			}
			if _, _, _, done := m.cores[0].proc.Status(); !done {
				t.Fatalf("program still running at cycle %d", until)
			}
			if n := m.eng.Pending(); n != tc.pending {
				t.Fatalf("pending events after the program = %d, want %d live reservations", n, tc.pending)
			}
			if err := m.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
