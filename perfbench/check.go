package main

import (
	"fmt"
	"sync"
)

// Tally is a workload's failure accounting. Every operation is attempted
// once; a failed one (transport error), a refused one (non-200 status)
// and a byte-mismatched one all count against error_ratio.
type Tally struct {
	mu         sync.Mutex
	Attempted  int64
	Failed     int64
	Refused    int64
	Mismatched int64
	Notes      []string // the first few failure descriptions
}

const maxNotes = 8

func (t *Tally) note(format string, args ...any) {
	if len(t.Notes) < maxNotes {
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}
}

// Attempt counts one operation.
func (t *Tally) Attempt() {
	t.mu.Lock()
	t.Attempted++
	t.mu.Unlock()
}

// Fail records a transport-level failure.
func (t *Tally) Fail(err error) {
	t.mu.Lock()
	t.Failed++
	t.note("failed: %v", err)
	t.mu.Unlock()
}

// Refuse records a non-200 reply.
func (t *Tally) Refuse(err error) {
	t.mu.Lock()
	t.Refused++
	t.note("refused: %v", err)
	t.mu.Unlock()
}

// Mismatch records a reply whose bytes differ from the oracle.
func (t *Tally) Mismatch(what string) {
	t.mu.Lock()
	t.Mismatched++
	t.note("byte mismatch: %s", what)
	t.mu.Unlock()
}

// Errors is failed + refused + mismatched.
func (t *Tally) Errors() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Failed + t.Refused + t.Mismatched
}

// ErrorRatio is Errors / Attempted (0 when nothing was attempted).
func (t *Tally) ErrorRatio() float64 {
	e := t.Errors()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Attempted == 0 {
		return 0
	}
	return float64(e) / float64(t.Attempted)
}

// Checker byte-checks replies keyed by what they must equal: every reply
// under a key must match the first one seen under it, and after the timed
// window each key's first reply is compared with the oracle (Settle) —
// so every reply is checked against the oracle while only one digest per
// key stays resident.
type Checker struct {
	mu    sync.Mutex
	seen  map[string]*stream
	tally *Tally
}

// stream is one key's first digest and how many replies matched it.
type stream struct {
	first [32]byte
	same  int64
}

// NewChecker reports mismatches into tally.
func NewChecker(tally *Tally) *Checker {
	return &Checker{seen: map[string]*stream{}, tally: tally}
}

// Observe checks one reply body under key.
func (c *Checker) Observe(key string, body []byte) {
	d := Digest(body)
	c.mu.Lock()
	st, ok := c.seen[key]
	if !ok {
		st = &stream{first: d}
		c.seen[key] = st
	}
	differs := st.first != d
	if !differs {
		st.same++
	}
	c.mu.Unlock()
	if differs {
		c.tally.Mismatch(key + " (differs from an earlier reply)")
	}
}

// Settle compares a key's replies with the oracle digest. When the first
// reply differs, every reply that matched it counts as a mismatch.
func (c *Checker) Settle(key string, want [32]byte) bool {
	c.mu.Lock()
	st, ok := c.seen[key]
	c.mu.Unlock()
	if !ok || st.first == want {
		return true
	}
	for i := int64(0); i < st.same; i++ {
		c.tally.Mismatch(key + " (differs from the oracle)")
	}
	return false
}
