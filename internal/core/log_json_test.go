package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzEntryJSON pins Entry.AppendJSON to encoding/json: for every entry
// json.Marshal accepts, the hand-written renderer emits the same bytes,
// and the line WriteJSON writes parses back through ReadLogJSON to the
// same entry.
func FuzzEntryJSON(f *testing.F) {
	f.Add(uint64(1), 0, int64(1622548800), int64(0), 0, "noise", "gaussian_noise", "v", "")
	f.Add(uint64(1<<63), -3, int64(-62135596800), int64(999999999), 7200, "p<&>", "e\"\\\b\f\n\r\t\x01\x7f", "a b", " ")
	f.Add(uint64(0), 2, int64(253402300799), int64(1), -34200, "\xff\xfe", "\xe2\x80", "ünï", "x")
	f.Add(uint64(7), 1, int64(0), int64(500), 0, "", "", "", "")
	f.Fuzz(func(t *testing.T, id uint64, sub int, sec, nsec int64, zone int, polluter, errName, a0, a1 string) {
		ts := time.Unix(sec, nsec%1e9).UTC()
		if zone%86400 != 0 {
			ts = ts.In(time.FixedZone("", zone%86400))
		}
		e := Entry{TupleID: id, SubStream: sub, EventTime: ts, Polluter: polluter, Error: errName}
		if a0 != "" || a1 != "" {
			e.Attrs = []string{a0, a1}
		}
		// A method-less twin keeps encoding/json reflecting over the fields
		// instead of calling back into AppendJSON through MarshalJSON.
		type reflected Entry
		want, err := json.Marshal((*reflected)(&e))
		if err != nil {
			return // a year outside 0..9999: encoding/json refuses it
		}
		if got := e.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from encoding/json:\ngot  %s\nwant %s", got, want)
		}
		var buf bytes.Buffer
		if err := logOf(e, e).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if line := append(append([]byte{}, want...), '\n'); !bytes.Equal(buf.Bytes(), append(line, line...)) {
			t.Fatalf("WriteJSON wrote %q, want two lines of %q", buf.Bytes(), want)
		}
		back, err := ReadLogJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON Entry
		if err := json.Unmarshal(want, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if back.Len() != 2 || !reflect.DeepEqual(*back.At(0), viaJSON) {
			t.Fatalf("round trip changed the entry:\ngot  %+v\nwant %+v", entriesOf(back), viaJSON)
		}
	})
}

// TestWriteJSONChunks checks that a log larger than one write chunk
// still arrives whole and in order.
func TestWriteJSONChunks(t *testing.T) {
	l := NewLog()
	for i := 0; i < 2000; i++ {
		l.Record(Entry{TupleID: uint64(i), EventTime: time.Unix(int64(i), 0).UTC(), Polluter: "p", Error: "e", Attrs: []string{"a"}})
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= logChunk {
		t.Fatalf("log of %d bytes does not cross a %d-byte chunk", buf.Len(), logChunk)
	}
	back, err := ReadLogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entriesOf(back), entriesOf(l)) {
		t.Fatal("chunked log does not read back equal")
	}
}
