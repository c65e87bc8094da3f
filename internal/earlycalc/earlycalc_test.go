package earlycalc

import "testing"

func TestSingleEntryRAddr(t *testing.T) {
	c := New(Config{Entries: 1})
	if c.Size() != 1 {
		t.Fatalf("size = %d", c.Size())
	}
	if _, ok := c.Lookup(5); ok {
		t.Errorf("cold lookup hit")
	}
	c.Bind(5, 1000)
	if v, ok := c.Lookup(5); !ok || v != 1000 {
		t.Errorf("lookup after bind = %d,%v", v, ok)
	}
	// Binding a different register replaces the single entry — "the
	// binding has just been switched by the current load".
	c.Bind(7, 2000)
	if _, ok := c.Lookup(5); ok {
		t.Errorf("old binding survived in a one-entry cache")
	}
	if v, ok := c.Lookup(7); !ok || v != 2000 {
		t.Errorf("new binding missing: %d,%v", v, ok)
	}
}

func TestMultiEntryLRU(t *testing.T) {
	c := New(Config{Entries: 2})
	c.Bind(1, 10)
	c.Bind(2, 20)
	c.Lookup(1)   // 1 is now MRU
	c.Bind(3, 30) // evicts 2
	if _, ok := c.Lookup(2); ok {
		t.Errorf("LRU entry survived")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Errorf("MRU entry evicted")
	}
	if _, ok := c.Lookup(3); !ok {
		t.Errorf("new entry missing")
	}
}

func TestRebindSameRegisterUpdatesInPlace(t *testing.T) {
	c := New(Config{Entries: 2})
	c.Bind(1, 10)
	c.Bind(2, 20)
	c.Bind(1, 11) // must not evict 2
	if _, ok := c.Lookup(2); !ok {
		t.Errorf("rebinding an existing register evicted another entry")
	}
	if v, _ := c.Lookup(1); v != 11 {
		t.Errorf("rebind did not update value: %d", v)
	}
}

func TestStats(t *testing.T) {
	c := New(Config{Entries: 1})
	c.Bind(4, 1)
	c.Lookup(4)
	c.Lookup(9)
	st := c.Stats()
	if st.Binds != 1 || st.Lookups != 2 || st.Hits != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
}

func TestDefaultSizeIsOne(t *testing.T) {
	if New(Config{}).Size() != 1 {
		t.Errorf("default register cache is not the single R_addr")
	}
}
