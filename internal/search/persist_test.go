package search

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"green/internal/metrics"
)

func TestIndexRoundTrip(t *testing.T) {
	orig := smallEngine(t)
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Docs() != orig.Docs() || loaded.Vocab() != orig.Vocab() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			loaded.Docs(), loaded.Vocab(), orig.Docs(), orig.Vocab())
	}
	// Loaded engine must return byte-identical results.
	qs, err := orig.GenerateQueries(33, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		a, na := orig.Search(q, 10, 0)
		b, nb := loaded.Search(q, 10, 0)
		if na != nb || !metrics.TopNExactMatch(a, b) {
			t.Fatalf("query %d differs after round trip", q.ID)
		}
		// Capped search too.
		a, _ = orig.Search(q, 10, 200)
		b, _ = loaded.Search(q, 10, 200)
		if !metrics.TopNExactMatch(a, b) {
			t.Fatalf("capped query %d differs after round trip", q.ID)
		}
	}
	// Query generation (uses cfg) is also preserved.
	qs2, err := loaded.GenerateQueries(33, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if len(qs[i].Terms) != len(qs2[i].Terms) {
			t.Fatal("query generation differs after round trip")
		}
		for j := range qs[i].Terms {
			if qs[i].Terms[j] != qs2[i].Terms[j] {
				t.Fatal("query terms differ after round trip")
			}
		}
	}
}

func TestReadEngineRejectsBadMagic(t *testing.T) {
	if _, err := ReadEngine(bytes.NewReader([]byte("NOTANIDX########"))); !errors.Is(err, ErrBadIndex) {
		t.Errorf("err = %v, want ErrBadIndex", err)
	}
}

func TestReadEngineRejectsTruncation(t *testing.T) {
	orig := smallEngine(t)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, 20, 100, len(data) / 2, len(data) - 3} {
		if _, err := ReadEngine(bytes.NewReader(data[:cut])); !errors.Is(err, ErrBadIndex) {
			t.Errorf("truncation at %d: err = %v, want ErrBadIndex", cut, err)
		}
	}
}

func TestReadEngineRejectsTrailingGarbage(t *testing.T) {
	orig := smallEngine(t)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xFF)
	if _, err := ReadEngine(&buf); !errors.Is(err, ErrBadIndex) {
		t.Errorf("err = %v, want ErrBadIndex", err)
	}
}

func TestReadEngineRejectsImplausibleSizes(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	// docs = 0.
	buf.Write(make([]byte, 4*4+8+8+8))
	if _, err := ReadEngine(&buf); !errors.Is(err, ErrBadIndex) {
		t.Errorf("zero docs accepted: %v", err)
	}
}

// indexFloatOffsets locates the floats of a serialized index: magic(8),
// four uint32 sizes, then qualityWeight, seed and avgLen (8 each), the
// doc lengths (4 each), and the quality and idf columns.
func indexFloatOffsets(docs, vocab int) (qualityWeight, avgLen, quality, idf int) {
	qualityWeight = 8 + 4*4
	avgLen = qualityWeight + 16
	quality = avgLen + 8 + 4*docs
	idf = quality + 8*docs
	return
}

// TestReadEngineRejectsNonFiniteNumbers: a NaN or infinite quality, idf,
// average length or quality weight — or an average length that is not
// positive, or a magnitude that could overflow a score — would put NaN
// scores into the heap, where less is no longer an order.
func TestReadEngineRejectsNonFiniteNumbers(t *testing.T) {
	const docs, vocab = 100, 20
	orig, err := NewEngine(Config{Docs: docs, VocabSize: vocab, AvgDocLen: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	qw, avg, quality, idf := indexFloatOffsets(docs, vocab)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200}
	for _, c := range []struct {
		field string
		off   int
		vals  []float64
	}{
		{"qualityWeight", qw, bad},
		{"avgLen", avg, append([]float64{0, -3}, bad...)},
		{"quality[0]", quality, bad},
		{"quality[last]", quality + 8*(docs-1), bad},
		{"idf[0]", idf, bad},
		{"idf[last]", idf + 8*(vocab-1), bad},
	} {
		for _, v := range c.vals {
			data := append([]byte(nil), buf.Bytes()...)
			binary.LittleEndian.PutUint64(data[c.off:], math.Float64bits(v))
			if _, err := ReadEngine(bytes.NewReader(data)); !errors.Is(err, ErrBadIndex) {
				t.Errorf("%s = %v accepted: %v", c.field, v, err)
			}
		}
		// The offsets are the fields': an ordinary value there is accepted.
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(data[c.off:], math.Float64bits(2.5))
		if _, err := ReadEngine(bytes.NewReader(data)); err != nil {
			t.Errorf("%s = 2.5 rejected: %v", c.field, err)
		}
	}
}

func TestReadEngineRejectsUnorderedPostings(t *testing.T) {
	orig, err := NewEngine(Config{Docs: 100, VocabSize: 20, AvgDocLen: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Find a term with >= 2 postings and swap its first two docs in the
	// serialized bytes. Layout scan: magic(8) + header(4*4+8+8+8 = 40)
	// + docLen(4*docs) + quality(8*docs) + idf(8*vocab), then per-term
	// blocks.
	data := buf.Bytes()
	off := 8 + 40 + 4*100 + 8*100 + 8*20
	for t2 := 0; t2 < 20; t2++ {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 4
		if n >= 2 {
			// Swap doc ids of posting 0 and 1 (each posting is 4+2=6
			// bytes... binary.Write of the struct uses padded encoding?
			// Posting{uint32, uint16} encodes as 6 bytes with
			// binary.Write on a slice.
			p0 := off
			p1 := off + 6
			for i := 0; i < 4; i++ {
				data[p0+i], data[p1+i] = data[p1+i], data[p0+i]
			}
			break
		}
		off += 6 * n
	}
	if _, err := ReadEngine(bytes.NewReader(data)); !errors.Is(err, ErrBadIndex) {
		t.Errorf("unordered postings accepted: %v", err)
	}
}

// indexHash is the SHA-256 of the engine's serialized index: header,
// docLen, quality, idf and every posting in order.
func indexHash(t *testing.T, e *Engine) string {
	t.Helper()
	h := sha256.New()
	if _, err := e.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestIndexBytesPinned holds NewEngine's output still: the serialized
// index of one unsharded and one sharded corpus hashes to the constants
// taken before the per-document term counts moved from a map to a dense
// array, so a build-time optimisation cannot move a posting.
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
		if got := indexHash(t, e); got != c.want {
			t.Errorf("shard %d/%d: index hashes to %s, want %s", c.cfg.ShardIndex, c.cfg.ShardCount, got, c.want)
		}
	}
}

// TestCorpusFingerprint pins the corpora everything downstream is built
// on — the default 20k, the 200k and one shard of three, at the seed
// bench/ boots every search workload on. The constants were generated at
// the commit before workload.Zipf stopped wrapping math/rand's sampler, so
// a change to the sampler or to NewEngine's build loop that moves one
// posting, length, prior or IDF bit fails here rather than in some
// downstream digit of results/scale_0.05.txt.
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
		if got := indexHash(t, e); got != c.want {
			t.Errorf("%s: corpus hashes to %s, want %s", c.name, got, c.want)
		}
	}
}
