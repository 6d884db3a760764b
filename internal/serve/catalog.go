package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// Catalog is the daemon's resident dataset registry: for every served
// dataset it pins the metadata.json partition index in memory behind an
// RWMutex, so the paper's §4.1 on-disk index is read once and amortized
// across every query instead of being re-parsed per request. The pin is
// revalidated on each access; a reload bumps the dataset's generation,
// which invalidates its cached results (their keys embed the generation)
// and the cached partition files the new view no longer references.
// Partition files themselves are keyed by name plus the ingest epoch,
// which moves only when metadata.json itself is replaced.
type Catalog struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{datasets: map[string]*Dataset{}}
}

// DatasetFlags collects repeated -dataset flags, each a spec for
// ParseDatasetSpec.
type DatasetFlags []string

func (d *DatasetFlags) String() string     { return strings.Join(*d, ",") }
func (d *DatasetFlags) Set(v string) error { *d = append(*d, v); return nil }

// ParseDatasetSpec splits a -dataset spec, "name=dir" (the schema is the
// name) or "name:schema=dir", into Register's arguments.
func ParseDatasetSpec(spec string) (name, schema, dir string, err error) {
	key, dir, ok := strings.Cut(spec, "=")
	if !ok || key == "" || dir == "" {
		return "", "", "", fmt.Errorf("bad -dataset %q, want name=dir or name:schema=dir", spec)
	}
	name, schema, ok = strings.Cut(key, ":")
	if !ok {
		schema = name
	}
	return name, schema, dir, nil
}

// Register adds the dataset at dir under name, decoding its records with
// the named stdata schema. The metadata is read eagerly so registration of
// a missing or broken dataset — or of one holding legacy v1/v2 files,
// which fails with storage.ErrLegacyFormat naming the re-ingest — fails at
// startup, not at first query.
func (c *Catalog) Register(name, schemaName, dir string) (*Dataset, error) {
	sch, ok := stdata.Lookup(schemaName)
	if !ok {
		return nil, fmt.Errorf("serve: unknown schema %q (have %v)", schemaName, stdata.SchemaNames())
	}
	d := &Dataset{Name: name, Dir: dir, Schema: sch}
	v, err := d.revalidate()
	if err != nil {
		return nil, err
	}
	if err := v.meta.CheckFormat(dir); err != nil {
		return nil, fmt.Errorf("serve: dataset %s: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.datasets[name]; dup {
		return nil, fmt.Errorf("serve: dataset %q already registered", name)
	}
	c.datasets[name] = d
	return d, nil
}

// Get returns the dataset registered under name.
func (c *Catalog) Get(name string) (*Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.datasets[name]
	return d, ok
}

// List returns a summary of every registered dataset, sorted by name.
func (c *Catalog) List() []DatasetInfo {
	c.mu.RLock()
	ds := make([]*Dataset, 0, len(c.datasets))
	for _, d := range c.datasets {
		ds = append(ds, d)
	}
	c.mu.RUnlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
	out := make([]DatasetInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.Info())
	}
	return out
}

// DatasetInfo is the /datasets wire form of one catalog entry.
type DatasetInfo struct {
	Name       string `json:"name"`
	Schema     string `json:"schema"`
	Dir        string `json:"dir"`
	Partitions int    `json:"partitions"`
	Records    int64  `json:"records"`
	Generation int64  `json:"generation"`
	// Error reports a metadata refresh failure (the entry stays listed so
	// operators can see what broke).
	Error string `json:"error,omitempty"`
}

// Dataset is one served dataset: its directory, decoding schema, and the
// pinned, revalidated metadata handle.
type Dataset struct {
	Name   string
	Dir    string
	Schema stdata.Schema

	mu    sync.RWMutex
	cur   view
	mtime time.Time
	mgen  int64
}

// view is one pinned state of a dataset: the merged metadata, the catalog
// generation (bumped on every reload) and the ingest epoch (bumped only
// when metadata.json itself was replaced).
type view struct {
	meta *storage.Metadata
	gen  int64
	// epoch qualifies partition file names in cache keys: base and delta
	// files are immutable and compaction writes fresh names, but a
	// re-ingest into the same directory rewrites part-NNNNN.stp in place.
	epoch int64
}

// Meta returns the pinned metadata handle and its generation, reloading
// from disk when the on-disk dataset has changed since the pin. Two probes
// back the revalidation: metadata.json's mtime (a full re-ingest replaces
// the file) and the delta manifest's generation (appends and compactions
// rewrite partitions in place and never touch metadata.json — and an
// mtime-only probe would also miss a rewrite landing within one timestamp
// granule). The catalog generation increments on every reload, which is
// what invalidates cached results for this dataset.
func (d *Dataset) Meta() (*storage.Metadata, int64, error) {
	v, err := d.revalidate()
	return v.meta, v.gen, err
}

// revalidate is Meta returning the whole view, ingest epoch included.
func (d *Dataset) revalidate() (view, error) {
	path := filepath.Join(d.Dir, storage.MetadataFile)
	st, err := os.Stat(path)
	if err != nil {
		return view{}, fmt.Errorf("serve: dataset %s: %w", d.Name, err)
	}
	mgen, err := storage.ManifestGeneration(d.Dir)
	if err != nil {
		return view{}, fmt.Errorf("serve: dataset %s: %w", d.Name, err)
	}
	d.mu.RLock()
	if d.cur.meta != nil && st.ModTime().Equal(d.mtime) && mgen == d.mgen {
		v := d.cur
		d.mu.RUnlock()
		return v, nil
	}
	d.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	// Another query may have refreshed while we waited for the write lock.
	if d.cur.meta != nil && st.ModTime().Equal(d.mtime) && mgen == d.mgen {
		return d.cur, nil
	}
	meta, err := storage.ReadMetadata(d.Dir)
	if err != nil {
		return view{}, fmt.Errorf("serve: dataset %s: %w", d.Name, err)
	}
	// A metadata.json replaced between the probe and the read carries a new
	// mtime too: whichever file was read, it may not be the pinned epoch's.
	after, err := os.Stat(path)
	if err != nil {
		return view{}, fmt.Errorf("serve: dataset %s: %w", d.Name, err)
	}
	if d.cur.meta == nil || !st.ModTime().Equal(d.mtime) || !after.ModTime().Equal(st.ModTime()) {
		d.cur.epoch++
	}
	d.cur.meta = meta
	d.cur.gen++
	d.mtime = st.ModTime()
	d.mgen = meta.Generation
	return d.cur, nil
}

// Info summarizes the dataset for /datasets.
func (d *Dataset) Info() DatasetInfo {
	info := DatasetInfo{Name: d.Name, Schema: d.Schema.SchemaName(), Dir: d.Dir}
	meta, gen, err := d.Meta()
	if err != nil {
		info.Error = err.Error()
		return info
	}
	info.Partitions = meta.NumPartitions()
	info.Records = meta.TotalCount
	info.Generation = gen
	return info
}
