package search

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"unsafe"
)

// corpusHash is the SHA-256 of the engine's corpus, little-endian, in the
// order of the index file format the constants below were taken over:
// the magic "GRNIDX1\n"; docs, vocab, avgDocLen and stopTerms (uint32);
// the quality weight, seed and average length (64 bits each); every
// document length (uint32); the quality and idf columns (float64); then
// per term its posting count (uint32) and each posting's doc (uint32)
// and tf (uint16).
func corpusHash(e *Engine) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	le := binary.LittleEndian
	var b [8]byte
	u32 := func(v uint32) { w.Write(le.AppendUint32(b[:0], v)) }
	u64 := func(v uint64) { w.Write(le.AppendUint64(b[:0], v)) }

	w.WriteString("GRNIDX1\n")
	for _, v := range []int{e.cfg.Docs, e.cfg.VocabSize, e.cfg.AvgDocLen, e.cfg.StopTerms} {
		u32(uint32(v))
	}
	u64(math.Float64bits(e.cfg.QualityWeight))
	u64(uint64(e.cfg.Seed))
	u64(math.Float64bits(e.avgLen))
	for _, l := range e.docLen {
		u32(l)
	}
	for _, col := range [][]float64{e.quality, e.idf} {
		for _, v := range col {
			u64(math.Float64bits(v))
		}
	}
	for _, ps := range e.postings {
		u32(uint32(len(ps)))
		for _, p := range ps {
			w.Write(le.AppendUint16(le.AppendUint32(b[:0], p.Doc), p.TF))
		}
	}
	w.Flush() // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// TestIndexBytesPinned holds NewEngine's output still: one unsharded and
// one sharded 3000-document corpus hash to the constants taken before the
// per-document term counts moved from a map to a dense array, so a
// build-time optimisation cannot move a posting.
func TestIndexBytesPinned(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Seed: 7, Docs: 3000}, "df2a8570ccdd18610ee8059cb9bc290868ccc60ddea066320477bf93cd0f9d92"},
		{Config{Seed: 7, Docs: 3000, ShardIndex: 1, ShardCount: 3}, "cf0dad14755e231b261560d044033702faf86f91b56d67ac664f97a23adfe57c"},
	}
	for _, c := range cases {
		e, err := NewEngine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusHash(e); got != c.want {
			t.Errorf("shard %d/%d: corpus hashes to %s, want %s", c.cfg.ShardIndex, c.cfg.ShardCount, got, c.want)
		}
	}
}

// TestCorpusFingerprint pins the corpora everything downstream is built
// on — the default 20k, the 200k and one shard of three, at the seed
// bench/ boots every search workload on. The constants were generated at
// the commit before workload.Zipf stopped wrapping math/rand's sampler, so
// a change to the sampler or to NewEngine's build loop that moves one
// posting, length, prior or IDF bit fails here rather than in some
// downstream digit of results/scale_0.05.txt. Each row hashes a cold
// build as well as NewEngine's engine, which another holder may share.
func TestCorpusFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default 20k", Config{Seed: 7}, "5efdc62d4756ee53af6efef16342584cc5a4cbd29b78c9f21606bb4dd409731d"},
		{"200k", Config{Seed: 7, Docs: 200000}, "1f9b8e7ecdb8b29c07443d01fd7316104a0c83dea9e265992aacc4a6cb21819d"},
		{"20k shard 1 of 3", Config{Seed: 7, ShardIndex: 1, ShardCount: 3}, "dbcc9380b964cfc64ac2df4e41c7dab3fc512f01c4785192153ef49aa83db1db"},
	}
	for _, c := range cases {
		e, err := NewEngine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusHash(e); got != c.want {
			t.Errorf("%s: corpus hashes to %s, want %s", c.name, got, c.want)
		}
		if got := corpusHash(coldEngine(t, c.cfg)); got != c.want {
			t.Errorf("%s: a cold build hashes to %s, want %s", c.name, got, c.want)
		}
	}
}

// TestPostingArena: NewEngine lays the posting lists end to end in one
// array, in term order, each exactly full; each holds only kept documents,
// in ascending id; and a kept document's tfs sum to its length. It runs
// at the default vocabulary, whole and sharded, and at 70 000 terms,
// where a term packed into 16 bits would land on another term's list
// and leave the terms past 65 535 without postings.
func TestPostingArena(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default 20k", Config{Seed: 7}},
		{"20k shard 1 of 3", Config{Seed: 7, ShardIndex: 1, ShardCount: 3}},
		{"70000 terms", Config{Seed: 7, VocabSize: 70000}},
	}
	for _, c := range cases {
		e, err := NewEngine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		index, count := e.Shard()
		count = max(count, 1)
		sums := make([]int, len(e.docLen))
		end, past16 := uintptr(0), 0 // where the previous list ends
		for term, ps := range e.postings {
			if len(ps) != cap(ps) {
				t.Fatalf("%s: term %d holds %d postings with room for %d", c.name, term, len(ps), cap(ps))
			}
			if len(ps) == 0 {
				continue
			}
			if start := uintptr(unsafe.Pointer(&ps[0])); end != 0 && start != end {
				t.Fatalf("%s: term %d's list does not start where the previous list ends", c.name, term)
			}
			end = uintptr(unsafe.Pointer(&ps[0])) + uintptr(len(ps))*unsafe.Sizeof(Posting{})
			prev := int64(-1)
			for _, p := range ps {
				if int64(p.Doc) <= prev || int(p.Doc)%count != index {
					t.Fatalf("%s: term %d posts doc %d after doc %d", c.name, term, p.Doc, prev)
				}
				prev = int64(p.Doc)
				sums[p.Doc] += int(p.TF)
			}
			if term >= 1<<16 {
				past16 += len(ps)
			}
		}
		for d, l := range e.docLen {
			want := 0
			if d%count == index {
				want = int(l)
			}
			if sums[d] != want {
				t.Fatalf("%s: doc %d of length %d has tfs summing to %d, want %d", c.name, d, l, sums[d], want)
			}
		}
		if len(e.postings) > 1<<16 && past16 == 0 {
			t.Fatalf("%s: no term past 65535 has a posting", c.name)
		}
	}
}
