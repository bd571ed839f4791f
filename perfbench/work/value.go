package work

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// HeaderLen is the self-describing prefix of every value the benchmark
// writes; generated sizes below it are raised to it.
//
//	[0:8)   FNV-1a hash of the key
//	[8:16)  write version
//	[16:20) value length
//	[20:24) CRC-32C of bytes [0:20) and the payload
//	[24:)   payload, a pseudo-random function of (key hash, version)
const HeaderLen = 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Value errors, from the most to the least specific diagnosis.
var (
	ErrCorrupt  = errors.New("value fails its checksum")
	ErrWrongKey = errors.New("value belongs to another key")
	ErrVersion  = errors.New("value has the wrong write version")
	ErrMismatch = errors.New("value differs from the expected bytes")
)

// keyHash is 64-bit FNV-1a, inlined so checking a hit allocates nothing.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Fill writes key's value at version into dst (grown to size bytes, size
// at least HeaderLen) and returns it.
func Fill(dst []byte, key string, version uint64, size int) []byte {
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	v := dst[:size]
	kh := keyHash(key)
	binary.LittleEndian.PutUint64(v[0:], kh)
	binary.LittleEndian.PutUint64(v[8:], version)
	binary.LittleEndian.PutUint32(v[16:], uint32(size))
	x := kh ^ (version * 0x9e3779b97f4a7c15)
	p := v[HeaderLen:]
	for len(p) >= 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(p, x)
		p = p[8:]
	}
	x = splitmix(x)
	for i := range p {
		p[i] = byte(x >> (8 * i))
	}
	binary.LittleEndian.PutUint32(v[20:], checksum(v))
	return v
}

func checksum(v []byte) uint32 {
	c := crc32.Update(0, castagnoli, v[:20])
	return crc32.Update(c, castagnoli, v[HeaderLen:])
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Check compares got byte for byte with key's value at version, using
// scratch to rebuild the expected bytes. On a mismatch it decodes got to say
// what is wrong with it.
func Check(scratch []byte, key string, version uint64, size int, got []byte) ([]byte, error) {
	want := Fill(scratch, key, version, size)
	if bytes.Equal(got, want) {
		return want, nil
	}
	switch {
	case len(got) < HeaderLen || int(binary.LittleEndian.Uint32(got[16:])) != len(got) ||
		binary.LittleEndian.Uint32(got[20:]) != checksum(got):
		return want, fmt.Errorf("key %s: %w", key, ErrCorrupt)
	case binary.LittleEndian.Uint64(got[0:]) != keyHash(key):
		return want, fmt.Errorf("key %s: %w", key, ErrWrongKey)
	case binary.LittleEndian.Uint64(got[8:]) != version:
		return want, fmt.Errorf("key %s: %w: got %d, want %d", key, ErrVersion,
			binary.LittleEndian.Uint64(got[8:]), version)
	}
	return want, fmt.Errorf("key %s: %w", key, ErrMismatch)
}
