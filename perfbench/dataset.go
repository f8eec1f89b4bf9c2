package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/value"
	"repro/seed"
)

// Dataset is the generated SEED database every workload starts from: its
// sizes and the initial value of every object, which the model starts
// from. It depends only on its sizes, never on the workload seed, so every
// workload and every seed measures the same database.
type Dataset struct {
	Objects   int // Data objects D000000…
	Tags      int // distinct Description tags
	Days      int // distinct Revised days
	ActionGap int // every ActionGap-th Data object gets its own Action

	Tag     []int     // Description tag per Data index
	Day     []int     // Revised day offset per Data index
	ID      []seed.ID // item ID per Data index, filled by Build
	byTag   [][]int   // Data indexes per tag, ascending
	byDay   [][]int   // Data indexes per day, ascending
	actions int
}

// FullDataset is the size every workload runs at: 50,000 Data objects,
// 3,125 tags of 16 objects each, 50 objects per Revised day, and 12,500
// Actions linked by Access — about 275k items.
var FullDataset = Dataset{Objects: 50000, Tags: 3125, Days: 1000, ActionGap: 4}

// ShortDataset keeps the benchmark's own tests quick.
var ShortDataset = Dataset{Objects: 2000, Tags: 125, Days: 40, ActionGap: 4}

// datasetSeed fixes the generated values; it is not the workload seed.
const datasetSeed = 0x5eed

// dayZero is Revised day 0.
var dayZero = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func dataName(i int) string   { return fmt.Sprintf("D%06d", i) }
func actionName(i int) string { return fmt.Sprintf("A%06d", i) }
func tagName(k int) string    { return fmt.Sprintf("tag-%d", k) }
func dayDate(d int) time.Time { return dayZero.AddDate(0, 0, d) }
func dayText(d int) string    { return dayDate(d).Format(value.DateLayout) }

// generate fills the per-object values: tags and days are assigned through
// permutations, so every tag matches Objects/Tags objects and every day
// holds Objects/Days of them.
func (ds *Dataset) generate() {
	r := rand.New(rand.NewSource(datasetSeed))
	tagPerm, dayPerm := r.Perm(ds.Objects), r.Perm(ds.Objects)
	ds.Tag = make([]int, ds.Objects)
	ds.Day = make([]int, ds.Objects)
	ds.ID = make([]seed.ID, ds.Objects)
	ds.byTag = make([][]int, ds.Tags)
	ds.byDay = make([][]int, ds.Days)
	for i := range ds.Tag {
		ds.Tag[i] = tagPerm[i] % ds.Tags
		ds.Day[i] = dayPerm[i] % ds.Days
		ds.byTag[ds.Tag[i]] = append(ds.byTag[ds.Tag[i]], i)
		ds.byDay[ds.Day[i]] = append(ds.byDay[ds.Day[i]], i)
	}
	ds.actions = (ds.Objects + ds.ActionGap - 1) / ds.ActionGap
}

// Items is the number of items the dataset holds: per Data object the
// object, Description, Revised, Text and Selector; per Action the Action
// and its Access relationship.
func (ds *Dataset) Items() int { return 5*ds.Objects + 2*ds.actions }

// HasAction reports whether Data object i has its own Action.
func (ds *Dataset) HasAction(i int) bool { return i%ds.ActionGap == 0 }

// buildBatch is the number of Data objects staged per transaction while
// building: one group-commit fsync per batch instead of one per item.
const buildBatch = 2500

// Build creates the dataset in db. The attribute indexes are declared
// after population, so they are built once in bulk.
func (ds *Dataset) Build(db *seed.Database) error {
	for lo := 0; lo < ds.Objects; lo += buildBatch {
		tx, err := db.BeginTx()
		if err != nil {
			return err
		}
		for i := lo; i < lo+buildBatch && i < ds.Objects; i++ {
			if err := ds.buildObject(tx, i); err != nil {
				_ = tx.Rollback() // the build error is the one to report
				return fmt.Errorf("building %s: %w", dataName(i), err)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	if err := db.CreateAttrIndex("Data", "Description", seed.AttrHash); err != nil {
		return err
	}
	return db.CreateAttrIndex("Data", "Revised", seed.AttrOrdered)
}

func (ds *Dataset) buildObject(tx *seed.Tx, i int) error {
	id, err := tx.CreateObject("Data", dataName(i))
	if err != nil {
		return err
	}
	ds.ID[i] = id
	if _, err := tx.CreateValueObject(id, "Description", seed.NewString(tagName(ds.Tag[i]))); err != nil {
		return err
	}
	if _, err := tx.CreateValueObject(id, "Revised", seed.NewDate(dayDate(ds.Day[i]))); err != nil {
		return err
	}
	text, err := tx.CreateSubObject(id, "Text")
	if err != nil {
		return err
	}
	if _, err := tx.CreateValueObject(text, "Selector", seed.NewString(fmt.Sprintf("sel-%06d", i))); err != nil {
		return err
	}
	if !ds.HasAction(i) {
		return nil
	}
	act, err := tx.CreateObject("Action", actionName(i))
	if err != nil {
		return err
	}
	_, err = tx.CreateRelationship("Access", map[string]seed.ID{"from": id, "by": act})
	return err
}
