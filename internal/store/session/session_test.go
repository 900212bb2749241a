package session

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func sampleSession(id string) *Session {
	return &Session{
		ID:     id,
		UserID: 42,
		Data:   map[string]string{"cart": "open", "step": "2"},
		Items:  []int64{7, 9},
	}
}

func testStoreBasics(t *testing.T, s Store) {
	t.Helper()
	if _, err := s.Read("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: Read missing err = %v, want ErrNotFound", s.Name(), err)
	}
	sess := sampleSession("s1")
	if err := s.Write(sess); err != nil {
		t.Fatalf("%s: Write: %v", s.Name(), err)
	}
	got, err := s.Read("s1")
	if err != nil {
		t.Fatalf("%s: Read: %v", s.Name(), err)
	}
	if got.UserID != 42 || got.Data["cart"] != "open" || len(got.Items) != 2 {
		t.Fatalf("%s: round trip mismatch: %+v", s.Name(), got)
	}
	if s.Len() != 1 {
		t.Fatalf("%s: Len = %d, want 1", s.Name(), s.Len())
	}
	if err := s.Delete("s1"); err != nil {
		t.Fatalf("%s: Delete: %v", s.Name(), err)
	}
	if _, err := s.Read("s1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: Read after delete err = %v, want ErrNotFound", s.Name(), err)
	}
	if err := s.Delete("s1"); err != nil {
		t.Fatalf("%s: double delete should be a no-op, got %v", s.Name(), err)
	}
	if err := s.Write(nil); err == nil {
		t.Fatalf("%s: Write(nil) should error", s.Name())
	}
	if err := s.Write(&Session{}); err == nil {
		t.Fatalf("%s: Write without ID should error", s.Name())
	}
}

func TestFastSBasics(t *testing.T) { testStoreBasics(t, NewFastS()) }

// The single-node SSM is a brick cluster of one shard × one replica, W = 1.
func TestSSMBasics(t *testing.T) { testStoreBasics(t, mustCluster(t, 1, 1, 1, nil, 0)) }

func TestIsolationFromCallerMutation(t *testing.T) {
	for _, s := range []Store{NewFastS(), mustCluster(t, 1, 1, 1, nil, 0), mustCluster(t, 4, 3, 2, nil, 0)} {
		sess := sampleSession("x")
		if err := s.Write(sess); err != nil {
			t.Fatal(err)
		}
		sess.Data["cart"] = "MUTATED"
		sess.Items[0] = 999
		got, err := s.Read("x")
		if err != nil {
			t.Fatal(err)
		}
		if got.Data["cart"] != "open" || got.Items[0] != 7 {
			t.Fatalf("%s: store aliased caller memory: %+v", s.Name(), got)
		}
		// Mutating the returned copy must not affect the store either.
		got.UserID = -5
		again, _ := s.Read("x")
		if again.UserID != 42 {
			t.Fatalf("%s: Read returned aliased object", s.Name())
		}
	}
}

func TestFastSLoseAll(t *testing.T) {
	f := NewFastS()
	for i := 0; i < 5; i++ {
		_ = f.Write(sampleSession(fmt.Sprintf("s%d", i)))
	}
	if n := f.LoseAll(); n != 5 {
		t.Fatalf("LoseAll = %d, want 5", n)
	}
	if f.Len() != 0 {
		t.Fatalf("Len after LoseAll = %d, want 0", f.Len())
	}
	if !(&FastS{}).SurvivesProcessRestart() == false {
		t.Fatal("FastS must not survive process restart")
	}
}

func TestFastSCorruptModes(t *testing.T) {
	f := NewFastS()
	_ = f.Write(sampleSession("a"))
	if err := f.Corrupt("a", "null"); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Read("a")
	if got.Data != nil || got.UserID != 0 {
		t.Fatalf("null corruption not applied: %+v", got)
	}

	_ = f.Write(sampleSession("b"))
	if err := f.Corrupt("b", "invalid"); err != nil {
		t.Fatal(err)
	}
	got, _ = f.Read("b")
	if got.UserID >= 0 {
		t.Fatalf("invalid corruption not applied: %+v", got)
	}

	_ = f.Write(sampleSession("c"))
	if err := f.Corrupt("c", "wrong"); err != nil {
		t.Fatal(err)
	}
	got, _ = f.Read("c")
	if got.UserID != 43 {
		t.Fatalf("wrong corruption not applied: %+v", got)
	}

	if err := f.Corrupt("missing", "null"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt missing err = %v", err)
	}
	if err := f.Corrupt("c", "bogus-mode"); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestFastSIDs(t *testing.T) {
	f := NewFastS()
	_ = f.Write(sampleSession("b"))
	_ = f.Write(sampleSession("a"))
	ids := f.IDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("IDs = %v, want [a b]", ids)
	}
}

func TestSSMChecksumDiscard(t *testing.T) {
	m := mustCluster(t, 1, 1, 1, nil, 0)
	_ = m.Write(sampleSession("v"))
	if err := m.CorruptBits("v"); err != nil {
		t.Fatal(err)
	}
	_, err := m.Read("v")
	if !errors.Is(err, ErrCorrupted) {
		t.Fatalf("Read corrupted err = %v, want ErrCorrupted", err)
	}
	// The bad object was discarded: second read is a plain miss.
	if _, err := m.Read("v"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second read err = %v, want ErrNotFound", err)
	}
	if m.Discarded() != 1 {
		t.Fatalf("Discarded = %d, want 1", m.Discarded())
	}
	if err := m.CorruptBits("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CorruptBits missing err = %v", err)
	}
}

func TestSSMLeaseExpiry(t *testing.T) {
	var now time.Duration
	m := mustCluster(t, 1, 1, 1, func() time.Duration { return now }, 10*time.Minute)
	_ = m.Write(sampleSession("s"))

	now = 5 * time.Minute
	if _, err := m.Read("s"); err != nil {
		t.Fatalf("read before expiry: %v", err)
	}
	// The read renewed the lease to 15min.
	now = 14 * time.Minute
	if _, err := m.Read("s"); err != nil {
		t.Fatalf("read within renewed lease: %v", err)
	}
	now = 60 * time.Minute
	if _, err := m.Read("s"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after expiry err = %v, want ErrNotFound", err)
	}
}

// TestSSMDown: with its only brick crashed the single-node SSM refuses
// every operation, and a restart brings it back empty — there is no peer
// to re-replicate from.
func TestSSMDown(t *testing.T) {
	m := mustCluster(t, 1, 1, 1, nil, 0)
	_ = m.Write(sampleSession("s"))
	if err := m.CrashBrick("ssm/s0-r0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read("s"); !errors.Is(err, ErrDown) {
		t.Fatalf("Read while down err = %v, want ErrDown", err)
	}
	if err := m.Write(sampleSession("t")); !errors.Is(err, ErrDown) {
		t.Fatalf("Write while down err = %v, want ErrDown", err)
	}
	if err := m.Delete("s"); !errors.Is(err, ErrDown) {
		t.Fatalf("Delete while down err = %v, want ErrDown", err)
	}
	if _, err := m.RestartBrick("ssm/s0-r0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read("s"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after restart err = %v, want ErrNotFound", err)
	}
	if err := m.Write(sampleSession("t")); err != nil {
		t.Fatalf("Write after restart: %v", err)
	}
}

func TestSessionCloneNil(t *testing.T) {
	var s *Session
	if s.Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
	empty := &Session{ID: "e"}
	c := empty.Clone()
	if c.Data != nil || c.Items != nil {
		t.Fatalf("Clone invented fields: %+v", c)
	}
}

// Property: marshal/unmarshal round trip preserves the session exactly.
func TestPropertySSMRoundTrip(t *testing.T) {
	f := func(userID int64, keys []string, vals []string, items []int64) bool {
		s := &Session{ID: "rt", UserID: userID, Data: map[string]string{}, Items: items}
		for i, k := range keys {
			v := ""
			if i < len(vals) {
				v = vals[i]
			}
			s.Data[k] = v
		}
		m := mustCluster(t, 1, 1, 1, nil, 0)
		if err := m.Write(s); err != nil {
			return false
		}
		got, err := m.Read("rt")
		return err == nil && got.UserID == s.UserID && maps.Equal(got.Data, s.Data) && slices.Equal(got.Items, s.Items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	for _, s := range []Store{NewFastS(), mustCluster(t, 1, 1, 1, nil, 0), mustCluster(t, 4, 3, 2, nil, 0)} {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				id := fmt.Sprintf("sess-%d", w)
				for i := 0; i < 100; i++ {
					_ = s.Write(&Session{ID: id, UserID: int64(i)})
					if _, err := s.Read(id); err != nil {
						t.Errorf("%s: concurrent read: %v", s.Name(), err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if s.Len() != 8 {
			t.Fatalf("%s: Len = %d, want 8", s.Name(), s.Len())
		}
	}
}
